open! Relalg

(** End-to-end solving of RES* and RSP* — the unified algorithm of the paper:
    encode as (I)LP, hand to the LP-based branch-and-bound, read the answer
    back as tuples.

    Every function has a [`Float] fast path (the default) and an [`Exact]
    path running the identical pipeline over arbitrary-precision rationals.

    Every solve runs on the encoding exactly as built: it is frozen and
    handed to a fresh engine, with no reduction pass in between, so the
    solver's variables are the encoding's and solutions need no lifting.
    The relax-first dispatch settles most questions at the root LP (the
    covering programs of the PTIME query classes have integral
    relaxations), where a presolve pass would only add preparation cost.
    {!Lp.Presolve} remains a library for [resil lint]'s summary and its
    own differential tests. *)

type stats = Session.stats = {
  nodes : int;
      (** Branch-and-bound nodes (LPs solved); [0] on certificate-settled
          solves. *)
  root_lp : float;  (** Root relaxation objective. *)
  root_integral : bool;  (** Was the root LP already integral? (Result 2) *)
  certified : bool;
      (** Settled by an integrality certificate (integral root-LP vertex —
          guaranteed when {!Lp.Struct} certifies the matrix structurally)
          with zero branch-and-bound nodes. *)
  solve_time : float;
      (** Seconds of pure branch-and-bound (encode, freeze and engine
          build excluded — see [prep_time]). *)
  prep_time : float;  (** Seconds of freeze + engine build. *)
  pivots : int;  (** Simplex pivots spent on this solve. *)
  refactors : int;  (** Basis refactorisations spent on this solve. *)
}

type 'a outcome = 'a Session.outcome =
  | Solved of 'a
  | Query_false  (** D does not satisfy Q — resilience is undefined/0. *)
  | No_contingency
      (** No contingency set exists: exogenous tuples block every option, or
          the responsibility tuple cannot be made counterfactual. *)
  | Budget_exhausted of int option
      (** Node/time limit hit; carries the incumbent value if any (the
          paper's ILP(10) reports exactly this). *)

type res_answer = Session.res_answer = {
  res_value : int;
  contingency : Database.tuple_id list;
  res_stats : stats;
}

type rsp_answer = Session.rsp_answer = {
  rsp_value : int;
  responsibility_set : Database.tuple_id list;
  rsp_stats : stats;
}

val resilience :
  ?exact:bool ->
  ?node_limit:int ->
  ?time_limit:float ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  res_answer outcome
(** RES*(Q, D) by ILP[RES*] (Theorem 4.2). *)

val resilience_lp :
  ?exact:bool -> Problem.semantics -> Cq.t -> Database.t -> float option
(** LP[RES*] optimum ([None] when the query is false or no program exists).
    Equal to RES* on every PTIME case (Theorems 8.6/8.7). *)

val resilience_lp_solution :
  ?exact:bool ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  (float * Encode.encoding * float array) option
(** LP optimum together with the encoding and the primal point — input to
    the rounding approximation. *)

val responsibility :
  ?exact:bool ->
  ?node_limit:int ->
  ?time_limit:float ->
  ?relaxation:Encode.relaxation ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  Database.tuple_id ->
  rsp_answer outcome
(** RSP*(Q, D, t) by ILP[RSP*] (Theorem 5.1); [~relaxation:Milp] gives
    MILP[RSP*] (exact on all PTIME cases, Theorems 8.11/8.12, and solvable
    in PTIME, Lemma 6.1). *)

val responsibility_lp :
  ?exact:bool ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  Database.tuple_id ->
  float option
(** LP[RSP*] — a lower bound that is {e not} exact even on easy queries
    (Example 4). *)

val enumerate_resilience :
  ?exact:bool ->
  ?node_limit:int ->
  ?time_limit:float ->
  ?jobs:int ->
  ?cap:int ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  Enumerate.family outcome
(** Every minimum contingency set of RES*(Q, D), via a fresh
    {!Session.enumerate_resilience} — pay witnesses/encode/freeze once,
    then one warm no-good-cut chain. *)

val enumerate_responsibility :
  ?exact:bool ->
  ?node_limit:int ->
  ?time_limit:float ->
  ?jobs:int ->
  ?cap:int ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  Database.tuple_id ->
  Enumerate.family outcome
(** Every minimum contingency set of RSP*(Q, D, t), same contract. *)

val responsibility_ranking :
  ?exact:bool ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  (Database.tuple_id * int * float) list
(** Rank every endogenous witness tuple as an explanation of the query
    answer: (tuple, minimal contingency size k, responsibility 1/(1+k)),
    best first.  Tuples that cannot be made counterfactual are omitted —
    the paper's query-explanation use case (Section 1, Example 11).

    Runs as one {!Session}: witnesses are enumerated and encoded once, and
    every tuple's ILP is a warm-started delta-solve against the shared
    frozen program. *)

(** {1 Flow baseline (prior work)} *)

val linearize_by_domination : Problem.semantics -> Cq.t -> Cq.t
(** Under set semantics, flag atoms dominated by another endogenous atom as
    exogenous (sound by Theorem 8.7's argument); under bag semantics this is
    the identity (domination does not apply, Theorem 8.8). *)

val resilience_flow : Problem.semantics -> Cq.t -> Database.t -> res_answer outcome option
(** The dedicated min-cut algorithm of Meliou et al. / Freire et al. — exact
    whenever the (domination-linearized) query is self-join-free and admits
    an exact ordering; [None] otherwise (non-linearizable query, or a
    self-join, where one tuple spans several flow edges and the min-cut can
    overestimate). *)

val responsibility_flow :
  Problem.semantics -> Cq.t -> Database.t -> Database.tuple_id -> rsp_answer outcome option

val verify_contingency :
  Problem.semantics -> Cq.t -> Database.t -> Database.tuple_id list -> bool
(** Does deleting the given tuples actually falsify the query?  (Used by
    tests and examples to double-check solver output.) *)

val verify_responsibility_set :
  Cq.t -> Database.t -> Database.tuple_id -> Database.tuple_id list -> bool
(** Is the set a valid contingency for t: query still true without the set,
    false once t is also removed? *)
