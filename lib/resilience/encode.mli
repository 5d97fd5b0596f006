open! Relalg

(** The paper's unified ILP formulations (Sections 4 and 5) and their
    relaxations (Section 6), and the one writer of their program format.

    Every program the system solves — per question, shared, appended by a
    write ({!Session}) or built for {!Deletion_propagation} — has one
    binary column [X_<rel>_<id>] per endogenous witness tuple, weighted by
    {!Problem.weight} (bag semantics change only these weights), and gives
    each distinct witness {e tuple set} one of three roles:
    - {e delete}: the covering row [sum X >= 1] (resilience);
    - {e preserve}: an indicator [W_<i>] with tracking rows
      [W >= X\[t'\]], under one counterfactual row
      [sum W - Z <= |W| - 1] (responsibility: some witness of [t] survives);
    - {e indicate}: an indicator with tracking rows and the destruction row
      [sum X >= W] (the shared program).

    Every column is declared with the upper bound [1]: the simplex keeps it
    as a column bound, not a row, and branch-and-bound fixes integer
    columns to 0/1. *)

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
                        false — no program needed. *)
  | Impossible
      (** No contingency set exists: some witness consists purely of
          exogenous tuples (resilience), or the responsibility tuple is in no
          witness / cannot be made counterfactual structurally. *)

val res : relaxation -> Problem.semantics -> Cq.t -> Database.t -> outcome
(** ILP[RES*] / LP[RES*] (Section 4; Example 1 and 2 reproduced in the test
    suite): every witness deleted. *)

val res_of_witnesses :
  relaxation -> Problem.semantics -> Cq.t -> Database.t -> Eval.witness list -> outcome
(** Same, reusing precomputed witnesses. *)

val rsp :
  relaxation -> Problem.semantics -> Cq.t -> Database.t -> Database.tuple_id -> outcome
(** ILP[RSP*] / MILP[RSP*] / LP[RSP*] (Sections 5 and 6; Examples 3 and 4):
    the witnesses avoiding [t] deleted, those containing it preserved. *)

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

    One tuple-independent program, every witness indicated, from which
    resilience {e and} the responsibility of every tuple are reachable by
    bound fixes alone ({!Lp.Frozen.Delta}), so a batch of solves shares a
    single frozen matrix and a warm-started solver session ({!Session}).

    - {e resilience}: fix every [W\[w\] = 1] and [Z = 1] — the destruction
      rows become the covering program ILP[RES*], everything else is
      vacuous;
    - {e responsibility of t}: fix [X\[t\] = 0], [Z = 0], and [W\[w\] = 1]
      for every witness {e not} containing [t] — exactly ILP[RSP*](t) plus
      destruction-soundness rows, which no 0/1 optimum violates (a witness
      with no deleted tuple need never be flagged destroyed).

    Tuple columns and witness indicators are integral, so the optima
    coincide with {!res}/{!rsp} under {!Ilp}. *)

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

val shared_of_sets :
  Problem.semantics -> Cq.t -> Database.t -> Database.tuple_id list list -> shared_outcome
(** One indicator per distinct witness tuple set, in order. *)

val view_side_effects :
  Cq.t ->
  Database.t ->
  delete:Database.tuple_id list list ->
  lost:(int list * Database.tuple_id list list) list ->
  outcome
(** The program of {!Deletion_propagation.view_side_effects}: the tuple
    sets of [delete] deleted; each [(row, sets)] of [lost] preserved under
    a counterfactual row whose binary slack [Y_<row>] pays for losing that
    view row.  The objective is lexicographic: tuple columns are binary at
    weight 1, and each [Y] weighs one more than all of them together, so
    the fewest lost rows come first and the fewest deleted tuples next.
    [Impossible] when a deleted set has no endogenous tuple. *)

(** {1 The writer}

    What {!Session} calls to append to its overlay in the same format. *)

type columns = {
  col_of_tuple : (Database.tuple_id, Lp.Model.var) Hashtbl.t;
  mutable tuple_cols : (Lp.Model.var * Database.tuple_id) list;  (** Newest first. *)
}

type writer = {
  col : name:string -> integer:bool -> obj:int -> Lp.Model.var;
  row : Lp.Model.sense -> int -> Lp.Model.linexpr -> unit;  (** [row sense rhs expr]. *)
  integral : bool * bool;  (** Are tuple columns, indicators integral? *)
  weight : Database.tuple_info -> int;
  db : Database.t;
  cols : columns;
}
(** Rows list their columns in creation order: a caller that declares an
    indicator after the tuple columns it tracks gets rows in normal form. *)

val endogenous : Cq.t -> Database.t -> Database.tuple_id list -> Database.tuple_id list
(** The members of a witness tuple set that may be deleted. *)

val tuple_terms : writer -> Database.tuple_id list -> Lp.Model.linexpr
(** [sum X] over the tuples, declaring each missing column. *)

val witness_col : writer -> int -> Lp.Model.var
val witness_block : writer -> Lp.Model.var -> Lp.Model.linexpr -> unit
(** An indicated witness's tracking rows, then its destruction row. *)

val counterfactual : writer -> Lp.Model.var list -> Lp.Model.var
(** A fresh slack [Z] and its counterfactual row over the indicators. *)
