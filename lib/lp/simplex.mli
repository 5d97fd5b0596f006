(** Bounded-variable dual simplex over an arbitrary ordered field and a
    pluggable basis kernel.

    The algorithm is written once, as the body of {!Make}.  Instantiated at
    {!Numeric.Field.Rat_field} it is an exact-arithmetic oracle used in
    tests and to certify LP-relaxation integrality claims (Theorems
    8.6–8.13 of the paper).  The production float solver is the same body
    compiled as the monomorphic unit {!Float_simplex}, whose field
    operations inline and stay unboxed; [Make (Numeric.Field.Float_field)]
    gives bit-identical results through a call per field operation, and
    the tests keep it as the unit's reference.

    The basis representation lives behind {!Basis.S}: sessions take
    [?kernel] selecting {!Basis.Sparse_lu} (the default — sparse LU with
    product-form eta updates, iteration cost tracking nonzeros) or
    {!Basis.Dense} (the reference explicit inverse, kept for differential
    testing).  Both kernels instantiate at either field; {!Float_simplex}
    runs the sparse kernel as the float unit {!Float_lu}.

    There is one solve path: compile a {!Frozen.t} into a session, then
    solve {!Frozen.Delta} overlays against it.  Every frozen program has a
    non-negative objective (enforced by {!Model.add_var} and {!Frozen}), so
    the all-slack basis is dual feasible and the dual simplex needs no
    phase 1.  Integrality flags are ignored here — this is the relaxation;
    see {!Branch_bound} for ILP/MILP solving. *)

module type S = sig
  type elt
  (** Field element: [float], or an exact rational. *)

  type outcome =
    | Optimal of { objective : elt; solution : elt array }
        (** [solution] is indexed by frozen variable (extended variable
            when the delta carries appends), fixed variables included at
            their fixed value. *)
    | Infeasible
        (** Costs are non-negative and variables bounded below, so a
            feasible program always has an optimum. *)

  val integral_on : elt array -> Model.var list -> bool
  (** Are all listed coordinates integral (within the field tolerance)? *)

  (** {1 Frozen sessions}

      A session compiles a {!Frozen.t} once — sparse columns, native
      per-column bounds (no upper-bound rows), a slack per row with
      equality slacks fixed to zero — and then solves any number of
      {!Frozen.Delta} bound overlays against it with a bounded-variable
      dual simplex.  Because a delta changes only bounds, the basis and
      reduced costs of the previous solve remain dual feasible, so every
      solve after the first warm-starts from the previous optimum instead
      of the all-slack basis.  The warm entry costs what the delta changes
      against the previous one (the columns either binds), not the size of
      the program: a re-solve under the same delta touches no column and
      makes no pivot. *)

  type session

  val create_session : ?kernel:Basis.choice -> Frozen.t -> session
  (** The session's basis kernel is fixed at creation (default [`Sparse]
      LU; [`Dense] forces the reference inverse, used by the
      [dense_vs_sparse_basis] differential oracle). *)

  val session_pivots : session -> int
  (** Lifetime pivot count of the session (never reset).  Callers take
      before/after deltas to attribute simplex work to one solve; unlike
      the global ["simplex.pivots"] counter this is per-session, so the
      attribution survives parallel batches. *)

  val session_refactors : session -> int
  (** Lifetime basis-refactorisation count of the session. *)

  val session_solve : session -> Frozen.Delta.t -> outcome
  (** Solve the frozen program under the delta, warm-starting from
      whatever basis the previous call left behind.  Fixing a variable
      outside its base bounds yields [Infeasible] and leaves the session as
      it was.

      When the delta carries row/column appends ({!Frozen.Delta.append_row},
      {!Frozen.Delta.append_col}), the session absorbs them first
      ({!session_absorb}). *)

  val session_absorb : session -> Frozen.Delta.t -> unit
  (** Make the session's program the base with the delta's appends, as
      {!session_solve} does before it solves.  The compiled state is rewound
      to the longest common prefix of the appends it holds and the delta's
      ({!Frozen.Delta.common_appends}), then grown by the rest: the base is
      never re-compiled and no program is copied.  When nothing was rewound
      the old optimal basis is kept, with the new rows slack-basic — a
      dual-feasible warm start, because base rows are immutable so
      appending never changes an existing reduced cost — and refactorised
      once.  After a rewind the state restarts from the all-slack basis.
      Either way the installed bound overrides are cleared.  A delta with
      the absorbed appends costs nothing.
      @raise Invalid_argument if an appended row names a variable past the
      base and the appended columns (the session is left as it was). *)

  (** {2 The absorbed program}

      The program {!session_absorb} made, read from the compiled state:
      base variables first, then appended ones by their extended index. *)

  val session_num_vars : session -> int
  val session_objective : session -> Model.var -> elt
  val session_upper : session -> Model.var -> elt option
  val session_is_integer : session -> Model.var -> bool

  val session_feasible : session -> Frozen.Delta.t -> float array -> bool
  (** {!Frozen.check_feasible} at its default tolerance on the absorbed
      program: the same float sums in the same order.  The delta's bound overrides
      are checked; its appends are taken to be the absorbed ones. *)

  val solve_frozen : ?delta:Frozen.Delta.t -> ?kernel:Basis.choice -> Frozen.t -> outcome
  (** One-shot convenience: [session_solve (create_session fz) delta]. *)
end

module Make (F : Numeric.Field.S) : S with type elt = F.t
