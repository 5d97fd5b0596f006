(** Mixed-integer linear program models with integer data.

    Every program generated by the resilience/responsibility encoders (and by
    the paper's formulations generally) has integer constraint coefficients,
    integer right-hand sides and integer objective weights, so the model is
    stored exactly over [int] and converted to the solving field on demand.

    Conventions:
    - the objective is always {e minimized};
    - every variable is constrained to be non-negative;
    - a variable may carry an optional integer upper bound;
    - a variable flagged [integer] is required to take integer values by the
      branch-and-bound solver ({!Branch_bound}); all integer variables in this
      code base are binary, and the solver branches by fixing to 0/1, which
      requires such variables to have an upper bound of 1. *)

type t

type var = int
(** Dense variable index, [0 .. num_vars t - 1]. *)

type sense = Geq | Leq | Eq

type linexpr = (var * int) list
(** Sparse linear expression: list of (variable, coefficient). *)

type constr = { expr : linexpr; sense : sense; rhs : int }

val create : unit -> t

val add_var : ?name:string -> ?integer:bool -> ?upper:int -> ?obj:int -> t -> var
(** Adds a variable with lower bound 0.  [integer] defaults to [false],
    [obj] (objective weight) to [0], [upper] to unbounded.

    @raise Invalid_argument if [upper] is negative (the implicit lower bound
    is 0, so the variable would have an empty domain), if [obj] is negative
    (every program minimises a non-negative cost, which is what lets the
    dual simplex start from the all-slack basis), or if [integer] is set
    without an [upper] bound — {!Branch_bound} branches integer variables
    between bounds, so an unbounded integer variable would only fail later
    and deeper; the error is raised at model-build time instead. *)

val relax_upper : t -> var -> unit
(** Drops the upper bound of a variable.  Intended for {!Presolve}, which
    uses it to remove bounds it has {e proven} redundant (every optimum of
    the relaxed model can be truncated back under the bound without loss) —
    in the dual simplex a finite bound costs a row, so redundant bounds are
    pure overhead.  This deliberately bypasses the {!add_var} integrality
    check: callers must guarantee redundancy, as {!Presolve} does. *)

val add_constr : t -> linexpr -> sense -> int -> unit
(** Adds the constraint [expr sense rhs].  Duplicate variables in [expr]
    are summed. *)

val num_vars : t -> int
val num_constrs : t -> int
val constraints : t -> constr array
val objective : t -> var -> int
val is_integer : t -> var -> bool
val upper : t -> var -> int option
val var_name : t -> var -> string
val integer_vars : t -> var list

val eval_expr : linexpr -> float array -> float
(** Value of a linear expression at a (dense) point. *)

val check_feasible : ?eps:float -> t -> float array -> bool
(** Do all constraints and bounds hold at the point (within [eps], default
    [1e-6])?  Integrality flags are not checked. *)

val pp : Format.formatter -> t -> unit
(** Human-readable LP-format-ish dump, for debugging and docs. *)

val to_lp_format : t -> string
(** The model in the standard CPLEX LP file format, accepted verbatim by
    Gurobi, CPLEX, SCIP, HiGHS, lp_solve, GLPK...  The paper leans on this
    interoperability ("programs can easily be swapped between solvers",
    Section 3.2): any program built here can be handed to a commercial
    solver unchanged. *)

val write_lp_file : t -> string -> unit
(** [write_lp_file m path] writes {!to_lp_format} to a file. *)
