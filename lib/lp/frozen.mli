(** Immutable compiled form of a {!Model}: the same program, frozen into
    CSR row arrays over flat [int] arrays.

    {!Model.t} is the mutable builder the encoders write into; freezing it
    once produces the form every downstream stage — {!Lint}, {!Presolve},
    {!Simplex}, {!Branch_bound} — consumes directly, so no stage re-walks or
    re-normalises association lists.  Rows keep the builder's normal form
    (coefficients sorted by variable, duplicates summed, zeros dropped),
    which row-identity passes (dedup, domination) rely on.

    A frozen program is never mutated.  Cheap per-solve variations — fixing
    a variable for branch-and-bound, pinning the witness indicators of a
    responsibility delta-solve — are expressed as a {!Delta}: a bound
    overlay interpreted by the solvers against the shared matrix, deriving a
    view without copying anything. *)

type t

module Delta : sig
  type t
  (** An overlay on top of a frozen program, in two parts:

      - {e bound overrides}: each entry fixes one variable to a constant
        (lower = upper = value).  Persistent and cheap — branch-and-bound
        extends its node's delta per branch, and a responsibility batch
        replays many deltas against one frozen program.
      - {e appends}: extra columns and extra rows on top of the base
        program, in order.  The incremental resilience service grows its
        covering program this way when tuple inserts create new witnesses;
        warm simplex sessions grow their compiled state by the new appends
        and keep the basis (see {!Simplex.session_absorb}).  Appended rows
        may reference both base and appended variables (appended variable
        [k] has index [num_vars base + k]); base rows are never altered,
        which is what keeps the dual warm-start sound. *)

  val empty : t

  val fix : Model.var -> int -> t -> t
  (** [fix v k d] overrides [v] to the constant [k] (replacing any earlier
      override of [v] in [d]).  @raise Invalid_argument if [k < 0]. *)

  val fix_zero : Model.var -> t -> t
  val force_one : Model.var -> t -> t

  val release : Model.var -> t -> t
  (** Removes any override on the variable, restoring its base bounds. *)

  val is_empty : t -> bool
  (** No overrides and no appends. *)

  val find : t -> Model.var -> int option

  val bindings : t -> (Model.var * int) list
  (** One entry per overridden variable, in ascending variable order
      (appends are not included; see {!appended_cols}/{!appended_rows}). *)

  (** {2 Appends} *)

  val append_col : ?integer:bool -> ?upper:int -> name:string -> obj:int -> t -> t
  (** Appends one variable after all existing ones (base and previously
      appended).  [integer] defaults to [false]; omitting [upper] leaves
      the variable unbounded above.  @raise Invalid_argument if [upper] or
      [obj] is negative. *)

  val append_row : Model.sense -> int -> (Model.var * int) list -> t -> t
  (** Appends one row.  The expression must be in normal form (ascending
      variables, non-zero coefficients) and may reference appended
      variables by their extended index.  @raise Invalid_argument
      otherwise. *)

  val num_appended_cols : t -> int
  val num_appended_rows : t -> int

  val has_appends : t -> bool

  val appended_cols : t -> (string * bool * int option * int) list
  (** [(name, integer, upper, obj)] per appended column, in append order. *)

  val appended_rows : t -> (Model.sense * int * (Model.var * int) list) list
  (** Appended rows in append order. *)

  val clear_appends : t -> t
  (** The same bound overrides with no appends — what a caller passes
      alongside a frozen program it has already {!extend}ed, to avoid
      applying the appends twice. *)

  val same_appends : t -> t -> bool
  (** Do the two deltas carry exactly the same appends (bound overrides
      ignored)?  Constant time when the deltas share structure. *)

  val common_appends : t -> t -> int * int
  (** [(c, r)]: the lengths of the longest common prefixes of the two
      deltas' appended columns and of their appended rows.  Warm sessions
      use it to keep what they absorbed of an earlier chain: both deltas
      share the first [c] appended columns and the first [r] appended rows.
      It walks only the entries past the shared tail when the chains share
      structure, which growth through {!append_col}/{!append_row}
      ensures. *)

  val appended_cols_from : t -> int -> (string * bool * int option * int) list
  val appended_rows_from : t -> int -> (Model.sense * int * (Model.var * int) list) list
  (** The appended columns (rows) past the first [k], in append order. *)
end

val of_model : Model.t -> t
(** Compiles the builder's current contents; later mutation of the builder
    does not affect the frozen copy. *)

val make :
  names:string array ->
  integer:bool array ->
  upper:int option array ->
  obj:int array ->
  rows:(Model.sense * int * (Model.var * int) list) array ->
  t
(** Directly materialises a frozen program from per-variable arrays and
    normalised rows [(sense, rhs, expr)] — {!Presolve} uses this to emit
    reduced programs without round-tripping through the mutable builder.
    Every row's [expr] must be sorted by variable with non-zero
    coefficients and no duplicates. @raise Invalid_argument otherwise, if
    the per-variable arrays disagree in length, or if an upper bound or an
    objective coefficient is negative (the {!Model.add_var} invariants). *)

val extend : t -> Delta.t -> t
(** The base program with the delta's appended columns and rows
    materialised (bound overrides are {e not} applied — pass them to the
    solver as usual).  Returns the program unchanged when the delta has no
    appends.  The result is a fresh frozen program sharing no arrays with
    the base; appended variables keep their extended indices. *)

(** {1 Shape} *)

val num_vars : t -> int
val num_rows : t -> int
val nnz : t -> int

(** {1 Per-variable data} *)

val objective : t -> Model.var -> int
val upper : t -> Model.var -> int option
val is_integer : t -> Model.var -> bool
val var_name : t -> Model.var -> string
val integer_vars : t -> Model.var list

(** {1 Rows (CSR)} *)

val row_sense : t -> int -> Model.sense
val row_rhs : t -> int -> int
val row_size : t -> int -> int
val iter_row : t -> int -> (Model.var -> int -> unit) -> unit
(** [iter_row t i f] calls [f v c] for every entry of row [i], in
    ascending variable order. *)

val row_expr : t -> int -> (Model.var * int) list
(** The row as a normalised association list (allocates). *)

(** {1 Evaluation} *)

val check_feasible : ?eps:float -> ?delta:Delta.t -> t -> float array -> bool
(** Do all rows, base bounds and delta overrides hold at the point (within
    [eps], default [1e-6])?  Integrality flags are not checked.  When the
    delta carries appends, [t] must be the {e un-extended} base program —
    the appends are materialised internally via {!extend} and [x] must be
    indexed by extended variable. *)
