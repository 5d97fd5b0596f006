(** Static structure analysis of a frozen constraint matrix, with
    machine-checkable integrality certificates.

    The paper's central bet is that hardness lives in {e structure}: PTIME
    query classes yield ILPs whose LP relaxations are integral, so
    branch-and-bound is wasted work on them.  {!Analysis} knows this at the
    query level (and goes silent on self-joins); this module decides it at
    the {e matrix} level, for any frozen program — encoder output,
    fuzz-generated, or hand-built — before any solve.

    [analyze] classifies the matrix as

    - {!Integral} with a {e witness}: a structural proof that every vertex
      of the LP relaxation is integral (total unimodularity via a
      Heller–Tompkins row bipartition for ±1 matrices with at most two
      nonzeros per column, its transpose, a consecutive-ones row/column
      ordering, or a full Ghouila–Houri signing family on small matrices),
      or an integral optimal vertex of the root LP (per-objective
      certificate);
    - {!Fractional} with a concrete fractional optimal vertex harvested
      from the root-LP basis;
    - {!Unknown}, with the extracted {!features} vector either way.

    Every certificate is checkable by {!verify} {e independently of the
    recognizer that produced it}: tests and the fuzz oracle re-derive the
    claim from the witness and the matrix alone.  The recognizers are
    deliberately incomplete (consecutive-ones uses greedy block refinement,
    not PQ-trees; Ghouila–Houri is exponential and only attempted below
    [gh_max_rows]); incompleteness costs certificates, never soundness.

    Structural witnesses survive {!Frozen.Delta} bound fixes: fixing a
    variable to an integer deletes its column and appends unit rows, both of
    which preserve total unimodularity — so a certificate for the base
    program certifies every delta-solve against it.  [Root_vertex]
    certificates do {e not} transfer (the optimum moves with the delta);
    {!structural} tells the two apart.  The solve paths never call
    {!analyze}: they settle a question by its root-LP vertex directly.
    Its verdict is an output of [resil analyze], [Resilience.Validate] and
    the certificate fuzz oracle. *)

type features = {
  rows : int;  (** Rows with at least one free entry under the delta. *)
  cols : int;  (** Free (non-delta-fixed) columns with an entry. *)
  nnz : int;
  unit_coeffs : bool;  (** Every entry is ±1. *)
  zero_one : bool;  (** Every entry is +1 (covering shape). *)
  neg_entries : int;
  max_col_nnz : int;
  max_row_nnz : int;
  avg_col_nnz : float;
      (** Row-coupling degree: how many rows an average column ties
          together. *)
  geq_rows : int;
  leq_rows : int;
  eq_rows : int;
  root_lp : float option;  (** Root-LP objective, when probed. *)
  root_fractional : int option;
      (** Fractional integer variables at the root-LP optimum, when
          probed — 0 is the paper's observed LP = ILP condition. *)
}

type witness =
  | Row_partition of bool array
      (** Heller–Tompkins: indexed by frozen row.  Entries ±1, every column
          has at most two nonzeros, and each two-nonzero column has its rows
          in different parts when the signs agree, the same part when they
          differ (equivalently: flipping one part's rows orients the matrix
          into a digraph incidence matrix). *)
  | Col_partition of bool array
      (** The transpose condition: indexed by variable, at most two nonzeros
          per {e row}. *)
  | Consecutive_rows of int array
      (** Interval matrix: a permutation of all frozen rows under which
          every column's support is contiguous (0/1 entries). *)
  | Consecutive_cols of int array
      (** The transpose: a permutation of all variables under which every
          row's support is contiguous. *)
  | Ghouila_houri of int array
      (** Exact characterisation on small matrices: for every non-empty
          subset [mask] of the (delta-reduced) rows — rows numbered in
          ascending frozen order — [signings.(mask - 1)] is the sub-mask of
          positive rows of a signing under which every column sums to
          -1, 0 or 1. *)
  | Root_vertex of float array
      (** An optimal vertex of the root LP relaxation that is integral on
          the integer variables — certifies LP = ILP for {e this}
          objective and delta only. *)

type verdict =
  | Integral of witness
  | Fractional of float array
      (** A fractional optimal vertex of the root LP relaxation. *)
  | Unknown

type t = { verdict : verdict; features : features }

val analyze :
  ?delta:Frozen.Delta.t -> ?gh_max_rows:int -> ?probe_root:bool -> Frozen.t -> t
(** Classify the matrix (as seen through [delta]'s bound fixes, if any).
    Structural recognizers run cheapest-first; the Ghouila–Houri fallback
    only on matrices with at most [gh_max_rows] (default 8) reduced rows.
    With [probe_root] (default [false]) an inconclusive structural pass
    solves the root LP relaxation and harvests an integral or fractional
    vertex from its basis.  Every emitted certificate has been re-checked
    with {!verify} before being returned. *)

val features : Frozen.t -> features
(** The {!features} vector of the whole program (no delta), in one pass
    over its rows and without running any recognizer — what the run-log
    records per solve. *)

val feature_fields : features -> (string * Obs.Json.t) list
(** The twelve structural fields, [rows] to [eq_rows] in declaration
    order (the probed root-LP fields excluded): the one field list behind
    both [resil analyze --json]'s [features] object and the run-log
    record. *)

val verify : ?delta:Frozen.Delta.t -> ?eps:float -> Frozen.t -> t -> bool
(** Re-derive the certificate's claim from the witness and the matrix,
    independently of {!analyze}: partition/ordering/signing conditions for
    the structural witnesses, feasibility plus integrality (resp. a
    fractional integer coordinate) for vertex certificates.  [Unknown]
    verifies trivially.  Must be called with the same [delta] the
    certificate was produced under. *)

val is_integral : t -> bool

val structural : t -> bool
(** [true] iff the verdict is [Integral] with a delta-transferable
    (matrix-structure, not root-vertex) witness. *)

val witness_name : witness -> string
(** Stable identifier: ["row-partition"], ["col-partition"],
    ["consecutive-rows"], ["consecutive-cols"], ["ghouila-houri"],
    ["root-vertex"]. *)

val verdict_name : t -> string
(** ["integral"], ["fractional"] or ["unknown"]. *)

val describe : t -> string
(** One-line human-readable classification for CLI reports. *)
