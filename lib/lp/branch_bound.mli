(** LP-based branch-and-bound for ILPs and MILPs with binary integer variables.

    This mirrors the mechanism the paper relies on in commercial solvers
    (Section 3.2): the root LP relaxation is solved first, and when its
    optimum is integral on the integer variables the search stops at the root
    — which is exactly what happens, provably, for all the paper's PTIME
    cases.  On hard instances the search branches, and the explored node
    count is the observable "exponential blow-up" of the experiments.

    Only binary integer variables are supported (all programs in this code
    base are of that shape): branching fixes a variable to 0 or to 1 as a
    {!Frozen.Delta} bound overlay, re-solved warm from the parent's basis.

    Every solve runs on a frozen program through a warm {!Simplex} session;
    {!S} is the field-generic surface, and {!Solvers.engine} packs an
    instantiation with a session so callers write one code path for the
    float and exact fields.  The search is sequential, one tree on one
    engine; parallelism lives a level up, where independent questions
    (a ranking's tuples, an enumeration's subspaces) each get their own
    engine over the same frozen arrays. *)

module type S = sig
  (** {1 The field} *)

  type elt
  (** Field element: [float], or an exact rational. *)

  val of_int : int -> elt
  val to_float : elt -> float

  val to_floats : elt array -> float array
  (** The point as floats — the array itself on the float field, so a
      float answer is never copied (see {!Numeric.Field.S.to_floats}). *)

  val integral_on : elt array -> Model.var list -> bool
  (** {!Simplex.Make.integral_on} at this field. *)

  (** {1 Results} *)

  type status =
    | Optimal  (** Proved optimal. *)
    | Feasible  (** A limit was hit; [objective] is the incumbent's value. *)
    | Infeasible
    | Unbounded
        (** Never produced: every frozen program has a non-negative
            objective over variables bounded below, so it cannot be
            unbounded.  Kept so exhaustive matches written against earlier
            versions still compile. *)
    | Limit_no_solution  (** A limit was hit before any incumbent was found. *)

  type result = {
    status : status;
    objective : elt option;
    solution : elt array option;
    nodes : int;  (** LP relaxations solved. *)
    root_objective : elt option;  (** Root LP relaxation value. *)
    root_integral : bool;
        (** Whether the root LP optimum was already integral on the integer
            variables — the paper's LP=ILP condition observed in practice. *)
    pivots : int;
        (** Simplex pivots spent on this solve, attributed through the warm
            session's lifetime totals. *)
    refactors : int;  (** Basis refactorisations, attributed like [pivots]. *)
  }

  (** {1 Frozen sessions}

      A session owns one warm-startable dual-simplex session (see
      {!Simplex}) over a frozen program and keeps it across calls:
      branching is delta extension, so within a tree every node after the
      root re-solves from its parent's basis, and across calls each root
      starts from the previous call's final basis — the warm-start chain a
      responsibility batch rides. *)

  type session

  val create_session : ?kernel:Basis.choice -> Frozen.t -> session
  (** [kernel] selects the basis representation of the warm LP session
      (default [`Sparse], see {!Basis.choice}). *)

  val solve_session :
    ?node_limit:int -> ?time_limit:float -> ?delta:Frozen.Delta.t -> session -> result
  (** Branch-and-bound under the delta (the "base" fixes every node of this
      tree respects).  [time_limit] is wall-clock seconds (emulates the
      paper's ILP(10) cutoff).  @raise Invalid_argument if an integer
      variable has an upper bound other than 1.  A delta carrying
      row/column appends solves the extended program — the warm LP session
      absorbs the appends (see {!Simplex.session_absorb}), the integrality,
      bounds and objective checks and the rounding heuristic read the
      absorbed program from it, and [solution] is indexed by extended
      variable; appended integer columns must be
      binary-compatible (upper bound 1 or none). *)

  val relax :
    ?delta:Frozen.Delta.t -> session -> [ `Optimal of elt * elt array | `Infeasible | `Unbounded ]
  (** Just the LP relaxation under the delta (one warm-started simplex
      solve; integrality flags ignored).  Never [`Unbounded], for the
      reason given at {!Unbounded}. *)

  val solve_frozen :
    ?node_limit:int -> ?time_limit:float -> ?delta:Frozen.Delta.t -> Frozen.t -> result
  (** One-shot convenience: [solve_session] on a fresh session. *)

  val session_work : session -> int * int
  (** Lifetime simplex pivots and refactorisations of the session's warm
      LP engine; callers take before/after differences to attribute work
      to one question, a {!relax} probe included. *)
end

module Make (F : Numeric.Field.S) : S with type elt = F.t
