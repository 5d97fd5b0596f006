open! Relalg

(** Enumeration of {e every} minimum contingency set via no-good cuts
    (DESIGN.md §13).

    After the first ILP optimum [OPT] with optimal set [S], the program is
    confined to its optimal face by one pin row [sum w_t X(t) <= OPT], and
    each emitted set is denied by a no-good cut
    [sum_{t in S} X(t) <= |S| - 1]; re-solving streams the remaining
    optimal sets until the program goes infeasible — the proof the family
    is exhausted.  Because all weights are [>= 1], distinct optimal sets
    are never subsets of one another, so each cut removes exactly its own
    set and the loop emits every optimal set exactly once.

    The warm production path lives in {!Session} (each cut is one appended
    row absorbed basis-intact by the session's dual-simplex engine); this
    module owns the solver-independent machinery — orderings, criticality,
    cut construction, the drive loop — plus a deliberately {e cold}
    reference enumerator (fresh solve per cut, no warm basis)
    that the differential oracle pins the warm path against. *)

type stats = {
  cuts : int;  (** No-good cuts appended. *)
  solves : int;  (** ILP solves, the first optimum included. *)
  nodes : int;  (** Branch-and-bound nodes over all solves. *)
  first_pivots : int;  (** Pivots of the first (cut-free) solve. *)
  cut_pivots : int;  (** Pivots summed over the cut re-solves. *)
  refactors : int;
  time : float;  (** Wall seconds for the whole enumeration. *)
}

type family = {
  opt : int;  (** The optimal value every emitted set attains. *)
  sets : Database.tuple_id list list;
      (** The minimum contingency sets, each sorted ascending, the family
          in canonical (lexicographic, duplicate-free) order. *)
  exhausted : bool;
      (** [true] when the cut loop ended with an infeasible program — the
          family is provably complete.  [false] after a budget, deadline
          or cap stop: [sets] is a correct but possibly partial family. *)
  fstats : stats;
}

type criticality = {
  crit_tuple : Database.tuple_id;
  crit_count : int;  (** Optimal sets containing the tuple. *)
  crit_total : int;  (** Optimal sets in the family. *)
  crit_exact : Numeric.Rat.t;  (** [crit_count / crit_total], exact. *)
  crit_float : float;
}

type outcome = Family of family | Query_false | No_contingency | Budget

(** {1 Orderings and derived data} *)

val canonical : Database.tuple_id list list -> Database.tuple_id list list
(** Sort each set ascending, then the family lexicographically, dropping
    duplicates — the deterministic order every surface reports. *)

val take : int -> Database.tuple_id list list -> Database.tuple_id list list
(** First [n] sets of the given ordering ([n < 0] keeps everything).
    Presentation-level truncation: enumeration itself always runs to
    exhaustion (or budget), so [take n] is a prefix of the full order. *)

val symdiff : Database.tuple_id list -> Database.tuple_id list -> int
(** Symmetric-difference cardinality of two sorted sets. *)

val diverse : Database.tuple_id list list -> Database.tuple_id list list
(** Greedy max-min-diversity reordering of a canonical family: keep the
    head, then repeatedly emit the set maximizing the minimum symmetric
    difference to everything already emitted (canonical order breaking
    ties).  Deterministic; a [take n] prefix then spreads over the family
    instead of clustering around one optimum. *)

val criticality : family -> criticality list
(** Per-tuple criticality — the fraction of optimal sets containing the
    tuple — for every tuple appearing in at least one set, most critical
    first (ties by tuple id).  Tuples in no optimal set have criticality 0
    and are omitted. *)

(** {1 Cut construction} *)

val no_good :
  (Database.tuple_id -> Lp.Model.var option) ->
  Database.tuple_id list ->
  Lp.Frozen.Delta.t ->
  Lp.Frozen.Delta.t
(** [no_good var_of set d] appends the denial row
    [sum_{t in set} X(t) <= |set| - 1].  @raise Invalid_argument on an
    empty cut (the caller must special-case the [OPT = 0] family). *)

val pin_expr : (Lp.Model.var * int) list -> (Lp.Model.var * int) list
(** Normalise (sort, drop zero weights) an objective-support expression for
    use as the pin row's left-hand side. *)

(** {1 The enumeration loop}

    Both entry points are parameterised over [run : float option ->
    Delta.t -> _]: one ILP solve under the delta with an optional remaining
    time budget, returning the rounded objective, the decoded tuple set and
    [(nodes, pivots, refactors)].  {!Session} passes its warm engine;
    the cold reference passes a fresh session per call. *)

val collect :
  ?cap:int ->
  ?time_limit:float ->
  t0:float ->
  opt:int ->
  cut:(Database.tuple_id list -> Lp.Frozen.Delta.t -> Lp.Frozen.Delta.t) ->
  run:
    (float option ->
    Lp.Frozen.Delta.t ->
    [ `Ok of int * Database.tuple_id list * (int * int * int)
    | `Infeasible
    | `Budget ]) ->
  seen:Database.tuple_id list list ->
  Lp.Frozen.Delta.t ->
  Database.tuple_id list list * bool * (int * int * int * int * int)
(** Gather every remaining optimal set reachable from the already-pinned
    delta: solve, record, cut, repeat until infeasible (exhausted), over
    budget, or [cap] total sets counting [seen].  Returns the new sets
    (unsorted), the exhaustion flag, and the accumulated
    [(cuts, solves, nodes, pivots, refactors)].  The parallel seed-split
    path drives one [collect] per subspace. *)

val family :
  t0:float ->
  opt:int ->
  s0:Database.tuple_id list ->
  first:int * int * int ->
  s0_cuts:int ->
  (Database.tuple_id list list * bool * (int * int * int * int * int)) list ->
  family
(** The family from the first optimum [s0] (its solve's [(nodes, pivots,
    refactors)] in [first]) and the {!collect} results of the chains that
    searched past it, in canonical order; exhausted when every chain is.
    [s0_cuts] counts the cut rows appended for [s0] itself, and [time]
    runs from [t0]. *)

val drive :
  ?cap:int ->
  ?time_limit:float ->
  pin:(int -> Lp.Frozen.Delta.t -> Lp.Frozen.Delta.t) ->
  cut:(Database.tuple_id list -> Lp.Frozen.Delta.t -> Lp.Frozen.Delta.t) ->
  run:
    (float option ->
    Lp.Frozen.Delta.t ->
    [ `Ok of int * Database.tuple_id list * (int * int * int)
    | `Infeasible
    | `Budget ]) ->
  Lp.Frozen.Delta.t ->
  [ `Family of family | `Infeasible | `Budget ]
(** The full sequential loop: first optimum, pin, then {!collect}.
    [`Infeasible] / [`Budget] report a first solve that never produced an
    optimum.  The [OPT = 0] family is [{[[]]}], returned without cuts. *)

(** {1 Cold reference enumerators}

    Per-question {!Encode.res}/{!Encode.rsp} encodings frozen as built,
    each link of the cut chain a fresh [solve_frozen] — no warm basis
    anywhere.  The differential oracle compares these, the warm
    {!Session} path and {!Bruteforce.resilience_family} on the same
    instances. *)

val resilience_cold :
  ?exact:bool ->
  ?node_limit:int ->
  ?time_limit:float ->
  ?cap:int ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  outcome

val responsibility_cold :
  ?exact:bool ->
  ?node_limit:int ->
  ?time_limit:float ->
  ?cap:int ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  Database.tuple_id ->
  outcome
