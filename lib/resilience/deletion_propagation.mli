open! Relalg

(** Deletion propagation (Buneman et al.; Sections 1–2 of the paper) on top
    of the unified framework.

    Here queries are {e non-Boolean}: a head of variables defines a view,
    and we want a given output row gone.

    - {!source_side_effects} minimises the number of {e input} tuples
      deleted.  As the paper notes, this is exactly resilience of the
      Boolean specialisation obtained by substituting the output row's
      constants for the head variables — the reduction is implemented here.
    - {!view_side_effects} minimises the number of {e other output rows}
      lost instead (Buneman et al.'s second objective; the paper lists it as
      an open direction its encoding extends to).  {!Encode} writes its
      program like every other: the target row's witnesses are deleted, and
      each other view row's are preserved under a counterfactual row whose
      slack marks the row lost.  A lost row outweighs every deletion, so
      among the fewest lost rows the fewest input tuples are deleted. *)

type answer = {
  deleted_inputs : Database.tuple_id list;
  lost_outputs : int array list;  (** Other view rows that disappear. *)
}

val output_rows : Cq.t -> head:string list -> Database.t -> int array list
(** The view: distinct valuations of the head variables, in deterministic
    order.  @raise Invalid_argument if a head variable is not in the
    query. *)

val source_side_effects :
  ?exact:bool ->
  Problem.semantics ->
  Cq.t ->
  head:string list ->
  Database.t ->
  output:int array ->
  answer Solve.outcome
(** Minimum-weight input deletion removing [output] from the view.
    [Query_false] doubles as "that row is not in the view". *)

val view_side_effects :
  ?exact:bool ->
  ?node_limit:int ->
  ?time_limit:float ->
  Cq.t ->
  head:string list ->
  Database.t ->
  output:int array ->
  answer Solve.outcome
(** Input deletion removing [output] while losing as few other view rows as
    possible (side effects reported in [lost_outputs]), and deleting as few
    input tuples as possible among those deletions.  View rows are
    counted set-wise, so the objective does not depend on bag
    multiplicities and the function takes no semantics.  Solved like
    every cold question, by {!Session.cold_solve}: an exhausted budget
    carries the incumbent count of lost rows. *)

val specialize : Cq.t -> head:string list -> output:int array -> Cq.t
(** The Boolean specialisation: head variables replaced by the output row's
    constants. *)
