(** Basis-factorisation kernels for the revised simplex.

    A kernel owns one invertible basis matrix [B] (given as a map from basis
    position to a sparse problem column) and answers the four questions every
    simplex iteration asks:

    - {b FTRAN}: solve [B w = a] for an entering column [a];
    - {b BTRAN}: solve [yᵀ B = cᵀ] for pricing, or a single row of [B⁻¹]
      for the dual ratio test;
    - {b update}: replace the column at one basis position by the column
      whose FTRAN image is known (a rank-one basis change per pivot);
    - {b refactor}: rebuild the representation from scratch, discarding
      accumulated update error and fill.

    Two implementations sit behind the one signature: {!Dense} keeps an
    explicit [B⁻¹] (the original solver — O(n²) per iteration, kept as the
    reference/fallback and as the differential-testing counterpart) and
    {!Sparse_lu} keeps a sparse LU factorisation with product-form-eta
    updates, whose per-iteration cost tracks the nonzero count rather than
    the row count.  The simplex paths in {!Simplex} are written against
    {!S} only, so both instantiate at any {!Numeric.Field.S} — the
    exact-rational oracle runs through the very same kernels.  The
    production float solver runs the body of {!Sparse_lu} compiled as the
    monomorphic unit {!Float_lu}, with the field operations inlined and
    unboxed. *)

type stats = {
  factor_nnz : int;  (** nonzeros stored for the factorised basis *)
  basis_nnz : int;  (** nonzeros of the basis columns at the last refactor *)
  etas : int;  (** update etas accumulated since the last refactor *)
  eta_nnz : int;  (** total entries stored in those etas *)
}

type choice = [ `Dense | `Sparse ]
(** Kernel selection, threaded through every solver entry point.  The
    default everywhere is [`Sparse] (the LU kernel); [`Dense] forces the
    reference dense inverse, kept for differential testing. *)

exception Singular
(** Raised by {!S.refactor} when the basis is (numerically) singular.  The
    kernel's state is unspecified afterwards; callers must install a known
    good basis and refactor again (the all-slack basis always succeeds). *)

module type S = sig
  type elt
  type t

  val name : string

  val create : nrows:int -> col:(int -> (int * elt) list) -> t
  (** A kernel for an [nrows]-row basis; [col j] returns problem column [j]
      as sparse [(row, coefficient)] entries (any column id the simplex may
      place in a basis, slacks and artificials included).  The kernel holds
      no valid factorisation until the first {!refactor}. *)

  val refactor : t -> int array -> unit
  (** [refactor t basis] factorises the matrix whose column at position [p]
      is [col basis.(p)], clearing the eta file.
      @raise Singular when the basis matrix is singular. *)

  val ftran : t -> (int * elt) list -> elt array
  (** [ftran t a] solves [B w = a] for a sparse column [a]; the result is a
      dense array indexed by basis position.  It may be a buffer the kernel
      reuses (the sparse kernel's is): read-only for the caller, and valid
      until the next {!ftran} or {!ftran_dense} on the kernel. *)

  val ftran_dense : t -> elt array -> elt array
  (** [ftran_dense t rhs] solves [B w = rhs] for a dense right-hand side
      (used to recompute the basic values after a refactor); [rhs] is not
      modified.  The result obeys the {!ftran} buffer contract. *)

  val ftran_pattern : t -> int array
  val ftran_pattern_len : t -> int
  (** A deduplicated superset of the nonzero positions of the most recent
      {!ftran} result: entries [0 .. ftran_pattern_len - 1] of
      [ftran_pattern], valid until the next solve or {!refactor} call.
      [ftran_pattern_len] is negative when no pattern was tracked (the
      dense kernel, or {!ftran_dense}) — the whole result must then be
      treated as potentially nonzero.  Callers use it to confine the work
      of applying a pivot (basic-value updates, eta extraction, violation
      re-checks) to the touched rows. *)

  val btran : t -> elt array -> elt array
  (** [btran t c] solves [yᵀ B = cᵀ]: [c] is indexed by basis position
      (e.g. the basic objective coefficients), the fresh result by row —
      the simplex multiplier vector used for pricing. *)

  val btran_unit : t -> int -> elt array
  (** [btran_unit t r] is row [r] of [B⁻¹] (BTRAN of the [r]-th unit
      vector), the row the dual ratio test prices columns against.  Like
      {!ftran}'s, the result may be a reused buffer: read-only, and valid
      until the next {!btran_unit}. *)

  val update : t -> r:int -> wcol:elt array -> unit
  (** [update t ~r ~wcol] replaces the basis column at position [r] by the
      column whose FTRAN image is [wcol] (i.e. post-multiplies [B] by the
      eta matrix with column [r] = [wcol]).  The caller guarantees
      [wcol.(r)] is the accepted pivot element. *)

  val should_refactor : t -> bool
  (** The kernel's own refactorisation policy: the dense inverse bounds the
      eta count (drift), the sparse kernel additionally bounds eta fill so
      solve cost cannot creep back towards dense behaviour. *)

  val etas : t -> int
  (** Updates applied since the last {!refactor} (0 right after one). *)

  val stats : t -> stats
  (** Fill/eta figures of the current factorisation, for telemetry. *)
end

module Dense (F : Numeric.Field.S) : S with type elt = F.t
(** The reference kernel: explicit dense [B⁻¹], Gauss–Jordan refactor with
    partial pivoting, O(n²) eta update per basis change. *)

module Sparse_lu (F : Numeric.Field.S) : S with type elt = F.t
(** Sparse LU: left-looking Gilbert–Peierls factorisation over columns
    ordered by ascending nonzero count (a static Markowitz approximation),
    threshold partial pivoting (relative threshold 1/10, ties broken towards
    the sparsest row), product-form eta updates, and sparse FTRAN/BTRAN
    whose arithmetic touches only stored nonzeros. *)
