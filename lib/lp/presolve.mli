(** Safe presolve: shrink a model before solving, without ever changing its
    optimum.

    Every reduction applied here is an equivalence, not a relaxation —
    the reduced model's optimal value plus {!obj_offset} equals the original
    model's optimal value, and any reduced optimal point lifts (via {!lift})
    to an original optimal point.  The passes, to a fixpoint:

    - rows whose left-hand side vanishes are checked and dropped (or the
      whole model declared infeasible, e.g. [0 >= 1]);
    - singleton rows become variable bounds where the model's bound language
      ([0 <= x <= u]) can express them — in particular a singleton that
      pins a variable against its bound {e fixes} it ([x >= 1] with
      [x <= 1] fixes [x = 1], the "forced deletion" rows of ILP[RES*]);
    - activity-based bound propagation tightens upper bounds and detects
      statically infeasible rows from the bounds alone;
    - rows satisfied by {e every} point within the bounds are dropped;
    - duplicate and parallel rows collapse to the tightest representative;
    - dominated covering rows (unit-coefficient [>=] rows containing
      another such row with an equal-or-larger right-hand side) are
      dropped — witnesses whose tuple set contains another witness's add
      nothing to ILP[RES*];
    - fixed and empty columns are substituted out;
    - finally, upper bounds that are provably redundant are stripped
      ([strip_bounds], on by default): if a variable has strictly positive
      cost and every row it appears in either loosens when the variable shrinks
      or is satisfiable by the variable at its bound alone (the covering
      cap argument of DESIGN.md §5), every optimum can be truncated under
      the bound, so the bound is never binding at an optimum.  For
      integer variables only binary bounds are stripped, preserving
      {!Branch_bound}'s 0/1 branching.

    The encoders emit one covering row per witness tuple-set; on real
    instances many of those rows are duplicated or dominated after
    exogenous-tuple filtering.  No solve path runs this pass: the
    relax-first dispatch settles most questions at the root LP, where a
    reduction only adds preparation cost.  It backs the presolve summary
    of [resil lint]/[analyze], and the test suite and the
    [presolve_on_off] fuzz oracle check it against the solve path. *)

type vmap
(** Witness of the reduction: how original variables map into the reduced
    model, which were fixed at what value, and the objective offset. *)

type summary = {
  rows_removed : int;
  vars_fixed : int;
  bounds_stripped : int;
  passes : int;
}

type result =
  | Infeasible  (** Proven infeasible without solving. *)
  | Unbounded  (** A negative-cost variable with no bound and no row. *)
  | Reduced of Frozen.t * vmap

val presolve : ?strip_bounds:bool -> Frozen.t -> result
(** Consumes and produces the frozen compiled form ({!Frozen.t}); the
    input is never modified (frozen programs are immutable). *)

val obj_offset : vmap -> int
(** Objective contribution of the fixed variables:
    [original optimum = reduced optimum + obj_offset]. *)

val summary : vmap -> summary

val lift : vmap -> of_int:(int -> 'a) -> 'a array -> 'a array
(** [lift vm ~of_int x] maps a reduced-model point (dense over reduced
    variables) back to a dense original-model point: kept variables read
    through, eliminated variables take their fixed value.  Works over any
    solution field — pass [Fun.id]'s field injection (e.g.
    [float_of_int], [Numeric.Rat.of_int]). *)
