open! Relalg

(** A solve session: one (query, database) pair kept alive across
    questions and writes.  Witness enumeration, encoding and freezing
    are paid {e once}; resilience and per-tuple responsibility questions
    are then cheap delta-solves against one frozen program.

    The session builds the shared super-model of {!Encode.shared_of_sets}
    (tuple variables, witness indicators, counterfactual slack, frozen as
    {!Lp.Frozen}), and opens one warm-started branch-and-bound session over
    the frozen form exactly as encoded ({!Lp.Branch_bound}) — no presolve
    and no structure analysis run on any solve path.  Every question is
    then a {!Lp.Frozen.Delta} — a set of bound fixes — against that matrix:

    - {!resilience} fixes every witness indicator to 1;
    - {!responsibility}[ t] fixes [X\[t\] = 0], the counterfactual slack to
      0, and the indicator of every witness avoiding [t] to 1;
    - {!ranking} runs the responsibility delta for every endogenous witness
      tuple, so the whole batch reuses one matrix and the dual-simplex
      basis of the previous optimum.

    {b Dense instances.}  The shared super-model has one row per (witness,
    member) pair plus indicator links, so on dense instances (many large
    witnesses) it grows well past the per-tuple programs it replaces.
    Under the sparse LU basis kernel a warm pivot costs nonzeros, not
    rows, and the shared batch beat cold per-tuple solves at every size
    measured (up to ~10^4 rows, 1.4-4.2x; BENCH.md), so every question a
    session answers runs on the shared program.  The one-shot per-question
    encoding is {!cold_solve}, what {!Solve} runs for a single question.

    {b Writes} ({!insert}, {!delete}) go to the borrowed database once, then
    to every listed session: its distinct witness tuple sets follow (an
    insert appends the sets of {!Eval.delta_insert}'s new witnesses, a
    delete drops the sets holding the tuple), and its program by overlays,
    kept in a delta every later question starts from; the warm engines
    absorb it without dropping their basis.  Appends go through the
    {!Encode} writer that built the program, so they are in its format.
    - An insert appends, per new witness tuple set, [X] columns for its
      endogenous tuples that have none, then an indicator [W] with its
      tracking and destruction rows.  A set with no endogenous tuple is a
      {e blocker} instead: while one is live, no contingency set exists.
    - A delete fixes [X\[t\] = 0] and drops the witnesses [t] was in from
      the {e live set}, the indicators the resilience and responsibility
      deltas force.  A dead indicator is left free, so its rows go
      vacuous.  The query is false when no witness is live.
    - {e Counterfactual refresh.}  Base rows are immutable, so the row
      [sum W - Z <= |W| - 1] cannot follow the live set.  After the live
      set changes, the next responsibility question appends a fresh row
      over the live indicators with a fresh slack and fixes the old slack
      to 1.
    - {e Rebuild.}  A write the overlay cannot take marks the program
      stale, and the next question re-encodes it from the tuple sets,
      without a re-join (counted by [incremental.rebuilds]).  That happens
      on compaction (the appended nonzeros pass a quarter of the base
      program's), on re-insert of an existing tuple (its weight or
      exogeneity moves), and when leaving a no-program state (the query
      false, or a fully exogenous witness, at build).

    Answers agree with the one-shot {!Solve} functions; the differential
    test suite checks this per tuple on random instances, float and exact,
    and the [serve_incremental] oracle under insert/delete streams. *)

type t

type stats = {
  nodes : int;
      (** Branch-and-bound nodes (LPs solved).  [0] when the solve was
          settled by an integrality certificate without entering
          branch-and-bound. *)
  root_lp : float;  (** Root relaxation objective. *)
  root_integral : bool;  (** Was the root LP already integral? *)
  certified : bool;
      (** The solve was settled by an integrality certificate: the
          warm-started root relaxation's optimum was integral on the integer
          variables (a root-vertex certificate — the common case on the
          paper's PTIME query classes, whose covering programs have integral
          relaxations) and was accepted as the ILP optimum with zero
          branch-and-bound nodes.  Counted by the [solve.certified] {!Obs}
          counter. *)
  solve_time : float;
      (** Seconds of {e pure} branch-and-bound for this question — excludes
          encoding, freezing and engine build (see [prep_time]). *)
  prep_time : float;
      (** Seconds of per-question preparation: freeze + engine build on
          the one-shot path ({!cold_solve}).  [0.] on a
          session's delta-solves, where preparation is paid once per
          session and reported by {!profile} instead. *)
  pivots : int;
      (** Simplex pivots spent on this question, the relaxation that
          settles a certified answer included. *)
  refactors : int;  (** Basis refactorisations, counted like [pivots]. *)
}

type 'a outcome =
  | Solved of 'a
  | Query_false  (** D does not satisfy Q. *)
  | No_contingency
      (** No contingency set exists: exogenous tuples block every option, or
          the responsibility tuple cannot be made counterfactual. *)
  | Budget_exhausted of int option
      (** Node/time limit hit; carries the incumbent value if any. *)

type res_answer = { res_value : int; contingency : Database.tuple_id list; res_stats : stats }

type rsp_answer = {
  rsp_value : int;
  responsibility_set : Database.tuple_id list;
  rsp_stats : stats;
}

type profile = {
  witnesses_s : float;  (** Witness enumeration (the relational join). *)
  encode_s : float;  (** Shared-program encode + freeze, in {!create} and rebuilds. *)
  prep_s : float;  (** Engine build: the session's lazy warm engine. *)
  solve_s : float;  (** Pure branch-and-bound time summed over questions. *)
  questions : int;  (** Questions asked (each ranking candidate counts). *)
}
(** Cumulative per-phase wall time for one session, in seconds.  Lazy
    phases report [0.] until something forces them; solve/prep sums grow
    with every answered question. *)

val create : ?exact:bool -> ?basis:Lp.Basis.choice -> Problem.semantics -> Cq.t -> Database.t -> t
(** Enumerate witnesses, encode and freeze the shared program (the warm
    engine is built lazily, by the first question that solves on it; a
    {!ranking} opens only its per-domain engines).  The session borrows [db], which
    any number of sessions may share: mutate it only through {!insert} and
    {!delete}.  [basis] (default [`Sparse] LU) selects the simplex basis
    kernel for every engine the session opens — the shared warm engine and
    each parallel domain engine; [`Dense] forces the reference dense
    inverse (used by the [dense_vs_sparse_basis] differential oracle). *)

val db : t -> Database.t
(** The borrowed database, physically the one given to {!create}. *)

val tuple_sets : t -> Database.tuple_id list list
(** The maintained distinct witness tuple sets, in encoding order.  Always
    equal to [Eval.unique_tuple_sets (Eval.witnesses q (db t))] as a set
    (order differs: sets found by writes are appended). *)

(** {1 Writes} *)

val insert :
  ?mult:int -> ?exo:bool -> Database.t -> t list -> string -> int array -> Database.tuple_id
(** Inserts a tuple into the database once ({!Database.add} semantics:
    re-inserting an existing tuple bumps multiplicity and ORs [exo], with a
    stable id), then maintains every listed session; list every session
    over the database, or the unlisted ones go stale.
    @raise Invalid_argument as {!Database.add} (nothing is mutated then),
    or if a listed session borrows another database. *)

val delete : Database.t -> t list -> Database.tuple_id -> unit
(** Removes the tuple once ({!Database.remove}), then maintains every
    listed session, dropping the witnesses that used it.  No-op on an id
    that is not live.  @raise Invalid_argument as {!insert}. *)

(** {1 Questions} *)

val resilience : ?node_limit:int -> ?time_limit:float -> t -> res_answer outcome
(** RES*(Q, D) as a delta-solve. *)

val responsibility :
  ?node_limit:int -> ?time_limit:float -> t -> Database.tuple_id -> rsp_answer outcome
(** RSP*(Q, D, t) as a delta-solve.  [No_contingency]
    when [t] appears in no witness (removing it cannot change the answer). *)

val ranking :
  ?node_limit:int ->
  ?time_limit:float ->
  ?jobs:int ->
  t ->
  (Database.tuple_id * int * float) list
(** Rank every {e endogenous} witness tuple as an explanation of the query
    answer: (tuple, minimal contingency size k, responsibility 1/(1+k)),
    best first (stable in database order).  Exogenous tuples and tuples
    outside every witness are skipped up front, without a solve; tuples
    whose delta is infeasible or over budget are omitted.  The per-tuple
    solves are drained by an {!Lp.Pool}: each participating domain opens
    its own warm simplex engine against the session's shared frozen arrays
    and runs a chunk of delta-solves; the session's own warm engine is
    not built.  Results are merged in task order,
    so the output is {e bit-identical} for every [jobs] (the ranking
    compares optimal objective values, which are basis-independent).
    [jobs = 0] means {!Lp.Pool.default_jobs}; the default [jobs = 1] runs
    the pool's sequential path, so the telemetry a ranking emits has the
    same shape at every job count.  The session's database must not be
    mutated during the call. *)

val enumerate_resilience :
  ?node_limit:int ->
  ?time_limit:float ->
  ?jobs:int ->
  ?cap:int ->
  t ->
  Enumerate.family outcome
(** Stream {e every} minimum contingency set (DESIGN.md §13): after the
    first optimum, an optimal-cost pin row and one no-good cut per emitted
    set are appended to the question's delta and the warm engine re-solves
    — each cut is a single appended row the dual-simplex session absorbs
    basis-intact, so a re-solve costs a handful of pivots, not a cold
    solve.  The family is returned in canonical order with
    [exhausted = true] when the final re-solve proved it complete;
    [time_limit] bounds the whole chain (wall clock), [node_limit] each
    solve, and [cap] the number of sets as a safety valve (a capped result
    has [exhausted = false]).  [jobs > 1] splits the search into the
    |S0| disjoint subspaces of a Lawler/Murty partition of the first
    optimum, each enumerated on its own warm engine over the shared frozen
    arrays; an exhausted enumeration returns the {e identical} family at
    every job count ([jobs = 0] means {!Lp.Pool.default_jobs}).
    [Budget_exhausted] is returned only when the budget died before the
    first optimum; later budget stops return the partial family with
    [exhausted = false]. *)

val enumerate_responsibility :
  ?node_limit:int ->
  ?time_limit:float ->
  ?jobs:int ->
  ?cap:int ->
  t ->
  Database.tuple_id ->
  Enumerate.family outcome
(** All minimum contingency sets of RSP*(Q, D, t), same contract as
    {!enumerate_resilience}.  The [OPT = 0] family is [{[[]]}] (the empty
    set is the unique zero-weight set). *)

val profile : t -> profile
(** The session's cumulative phase breakdown so far.  Cheap (reads an
    accumulator); call it again after more questions for updated sums.
    Accounting happens on the submitting domain only, so it is safe to call
    between (not during) {!ranking} batches. *)

(** {1 Cold one-shot solves}

    What {!Solve} runs for one question: a per-question encoding (smaller
    than the session's shared program) through the same engine dispatch
    the session uses. *)

val cold_solve :
  ?node_limit:int ->
  ?time_limit:float ->
  op:string ->
  exact:bool ->
  answer:(int -> float array -> stats -> 'a) ->
  Encode.encoding ->
  'a outcome
(** Freeze and solve the encoding cold — the root-vertex certificate
    first, branch-and-bound otherwise — and build the answer from
    (optimum, primal point over the encoding's variables, stats); read the
    tuple set with {!Encode.contingency}.  [stats.prep_time]
    covers freeze + engine build; [op] names the question in the run log.
    [No_contingency] when the solve proves the program infeasible. *)

val cold_lp : exact:bool -> Encode.encoding -> (float * float array) option
(** The LP relaxation optimum of the encoding with its primal point over
    the encoding's variables; [None] when infeasible. *)
