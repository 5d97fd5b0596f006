open! Relalg

(** The paper's unified ILP formulations (Sections 4 and 5) and their
    relaxations (Section 6), built from a query, a database and — for
    responsibility — a tuple.

    The encodings follow the paper exactly:
    - one binary decision variable [X\[t\]] per distinct {e endogenous}
      tuple appearing in some witness;
    - one covering constraint per distinct witness {e tuple set};
    - under bag semantics the only change is the objective weights
      (multiplicities) — the constraint matrix is untouched;
    - for responsibility, witness-indicator variables [X\[w\]] for the
      witnesses containing the responsibility tuple, tracking constraints
      [X\[w\] >= X\[t'\]], and one counterfactual constraint
      [sum X\[w\] <= |W_t| - 1].

    Upper bounds [X\[t\] <= 1] are provably redundant in these covering
    programs and omitted; witness indicators do carry an upper bound of 1
    (the branch-and-bound fixes them to 0/1). *)

type relaxation =
  | Ilp  (** Every decision variable integral. *)
  | Milp  (** Witness indicators integral, tuple variables continuous —
              MILP[RSP*]; for resilience this equals {!Lp}. *)
  | Lp  (** No integrality — LP[RES*] / LP[RSP*]. *)

type encoding = {
  model : Lp.Model.t;
  tuple_of_var : (Lp.Model.var * Database.tuple_id) list;
      (** Tuple decision variables (witness indicators excluded). *)
  var_of_tuple : (Database.tuple_id, Lp.Model.var) Hashtbl.t;
  witness_vars : Lp.Model.var list;  (** Empty for resilience. *)
}

type outcome =
  | Encoded of encoding
  | Trivial of int  (** The optimum is immediate: 0 when the query is already
                        false (resilience) — no program needed. *)
  | Impossible
      (** No contingency set exists: some witness consists purely of
          exogenous tuples (resilience), or the responsibility tuple is in no
          witness / cannot be made counterfactual structurally. *)

val res : relaxation -> Problem.semantics -> Cq.t -> Database.t -> outcome
(** ILP[RES*] / LP[RES*] (Section 4; Example 1 and 2 reproduced in the test
    suite). *)

val res_of_witnesses :
  relaxation -> Problem.semantics -> Cq.t -> Database.t -> Eval.witness list -> outcome
(** Same, reusing precomputed witnesses. *)

val rsp :
  relaxation -> Problem.semantics -> Cq.t -> Database.t -> Database.tuple_id -> outcome
(** ILP[RSP*] / MILP[RSP*] / LP[RSP*] (Sections 5 and 6; Examples 3 and 4). *)

val rsp_of_witnesses :
  relaxation ->
  Problem.semantics ->
  Cq.t ->
  Database.t ->
  Eval.witness list ->
  Database.tuple_id ->
  outcome

val contingency : encoding -> float array -> Database.tuple_id list
(** Read a 0/1 solution vector back into the tuples picked for deletion. *)

(** {1 Shared super-model}

    One tuple-independent program from which resilience {e and} the
    responsibility of every tuple are reachable by bound fixes alone
    ({!Lp.Frozen.Delta}), so a batch of solves shares a single frozen
    matrix and a warm-started solver session ({!Session}).

    Variables: one [X\[t'\]] per endogenous witness tuple (weighted as
    usual), one indicator [W\[w\]] per distinct witness tuple set, and a
    slack [Z].  Rows: tracking [W\[w\] >= X\[t'\]] and destruction
    soundness [sum X\[t'\] >= W\[w\]] per witness, plus one counterfactual
    row [sum W - Z <= |W| - 1].

    - {e resilience}: fix every [W\[w\] = 1] and [Z = 1] — the destruction
      rows become the covering program ILP[RES*], everything else is
      vacuous;
    - {e responsibility of t}: fix [X\[t\] = 0], [Z = 0], and [W\[w\] = 1]
      for every witness {e not} containing [t] — exactly ILP[RSP*](t) plus
      destruction-soundness rows, which no 0/1 optimum violates (a witness
      with no deleted tuple need never be flagged destroyed).

    Under {!Ilp} the optima coincide with {!res}/{!rsp}; under {!Milp}/{!Lp}
    the relaxation is weakly tighter (never below the per-tuple relaxation,
    never above the integral optimum), and the rounding guarantees of
    Theorem 9.1 carry over unchanged. *)

type shared = {
  sfz : Lp.Frozen.t;
      (** The program, frozen as encoded (the builder is not kept). *)
  stuple_of_var : (Lp.Model.var * Database.tuple_id) list;
      (** Tuple decision variables, in creation order. *)
  svar_of_tuple : (Database.tuple_id, Lp.Model.var) Hashtbl.t;
  switnesses : (Lp.Model.var * Database.tuple_id list) list;
      (** Witness indicator variables with the {e full} tuple set (exogenous
          members included — membership of the responsibility tuple is
          tested against this). *)
  sz : Lp.Model.var;  (** The counterfactual slack [Z]. *)
}

type shared_outcome =
  | Shared of shared
  | Shared_trivial  (** No witnesses: the query is already false. *)
  | Shared_impossible
      (** Some witness is fully exogenous: it can never be destroyed, so no
          contingency set exists for resilience {e or} for the
          responsibility of any tuple. *)

val shared_of_witnesses :
  relaxation -> Problem.semantics -> Cq.t -> Database.t -> Eval.witness list -> shared_outcome
