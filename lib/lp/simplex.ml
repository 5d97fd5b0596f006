(* Bounded-variable dual simplex over a pluggable basis-factorisation
   kernel ({!Basis}), parametric in the number field.  The basis lives
   behind the kernel signature — sparse LU with product-form eta updates by
   default, the explicit dense inverse kept as a reference implementation.

   There is one algorithm path: a frozen program is compiled once into a
   session (sparse columns, native per-column bounds, one slack per row)
   and every solve is a dual simplex from the session's current basis.
   Every program this code base builds minimises a non-negative cost — a
   construction-time invariant of {!Model} and {!Frozen} — so the all-slack
   basis is dual feasible and no phase 1 is ever needed.  Each pivot
   updates the kernel (an eta), the kernel refactorises on its own cadence
   and before pivoting on noise-level elements, and pricing falls back to
   Bland's rule late in the iteration budget. *)

module type S = sig
  type elt
  type outcome = Optimal of { objective : elt; solution : elt array } | Infeasible

  val integral_on : elt array -> Model.var list -> bool

  type session

  val create_session : ?kernel:Basis.choice -> Frozen.t -> session
  val session_pivots : session -> int
  val session_refactors : session -> int
  val session_solve : session -> Frozen.Delta.t -> outcome
  val session_absorb : session -> Frozen.Delta.t -> unit
  val session_num_vars : session -> int
  val session_objective : session -> Model.var -> elt
  val session_upper : session -> Model.var -> elt option
  val session_is_integer : session -> Model.var -> bool
  val session_feasible : session -> Frozen.Delta.t -> float array -> bool
  val solve_frozen : ?delta:Frozen.Delta.t -> ?kernel:Basis.choice -> Frozen.t -> outcome
end

(* The build also compiles this functor's body on its own, with F the
   float field and {!Float_lu} as the sparse kernel, as the unit
   {!Float_simplex} (lib/lp/dune): the body may not use anything defined at
   this file's top level. *)
module Make (F : Numeric.Field.S) = struct
  (* Cross-field instrumentation: every instance of this body (the float
     unit, the exact functor instance) shares one set of counters
     ({!Obs.Counter.create} is idempotent by name), and every bump is dropped
     unless a trace sink is installed, so the per-pivot cost with telemetry
     off is a single atomic load. *)
  let c_pivots = Obs.Counter.create "simplex.pivots"
  let c_bland_falls = Obs.Counter.create "simplex.bland_falls"
  let c_refactors = Obs.Counter.create "simplex.refactors"
  let c_eta_peak = Obs.Counter.create "simplex.eta_peak"

  (* The dual session never flips a nonbasic bound inside a pivot, so this
     counter always reads 0; it stays registered because the telemetry key
     set is a published schema (the --stats goldens lock it). *)
  let () = ignore (Obs.Counter.create "simplex.bound_flips")

  (* Basis-kernel telemetry: high-water factor size and fill ratio (percent of
     the basis nonzero count), and the running FTRAN result sparsity
     (nnz/length, accumulated so the trace consumer can form the fraction). *)
  let c_lu_factor_nnz = Obs.Counter.create "simplex.lu_factor_nnz"
  let c_lu_fill_pct = Obs.Counter.create "simplex.lu_fill_pct"
  let c_ftran_nnz = Obs.Counter.create "simplex.ftran_nnz"
  let c_ftran_len = Obs.Counter.create "simplex.ftran_len"

  type elt = F.t
  type outcome = Optimal of { objective : elt; solution : elt array } | Infeasible

  let integral_on x vars = List.for_all (fun v -> F.is_integral x.(v)) vars

  (* ----- Basis kernels -------------------------------------------------
     Both kernel implementations are instantiated at this field; the choice
     is per session, packed existentially so the engine is written once
     against the {!Basis.S} signature. *)

  module Dense_kernel = Basis.Dense (F)
  module Sparse_kernel = Basis.Sparse_lu (F)

  type basis_kernel =
    | K : (module Basis.S with type elt = F.t and type t = 'k) * 'k -> basis_kernel

  let make_kernel (choice : Basis.choice) ~nrows ~col : basis_kernel =
    match choice with
    | `Dense -> K ((module Dense_kernel), Dense_kernel.create ~nrows ~col)
    | `Sparse -> K ((module Sparse_kernel), Sparse_kernel.create ~nrows ~col)

  let k_refactor kern basis = match kern with K ((module B), k) -> B.refactor k basis
  let k_ftran kern entries = match kern with K ((module B), k) -> B.ftran k entries
  let k_ftran_dense kern rhs = match kern with K ((module B), k) -> B.ftran_dense k rhs
  let k_btran kern c = match kern with K ((module B), k) -> B.btran k c
  let k_btran_unit kern r = match kern with K ((module B), k) -> B.btran_unit k r
  let k_update kern ~r ~wcol = match kern with K ((module B), k) -> B.update k ~r ~wcol
  let k_ftran_pattern kern = match kern with K ((module B), k) -> B.ftran_pattern k
  let k_ftran_pattern_len kern = match kern with K ((module B), k) -> B.ftran_pattern_len k
  let k_should_refactor kern = match kern with K ((module B), k) -> B.should_refactor k
  let k_etas kern = match kern with K ((module B), k) -> B.etas k
  let k_stats kern = match kern with K ((module B), k) -> B.stats k

  let observe_factor kern =
    if Obs.Sink.active () then begin
      let st = k_stats kern in
      Obs.Counter.record_max c_lu_factor_nnz st.Basis.factor_nnz;
      if st.Basis.basis_nnz > 0 then
        Obs.Counter.record_max c_lu_fill_pct
          (100 * st.Basis.factor_nnz / st.Basis.basis_nnz)
    end

  (* FTRAN density of [w], the kernel's last FTRAN result: counted over
     the result's published pattern (a duplicate-free superset of its
     nonzeros) when the kernel tracked one, over the whole vector
     otherwise. *)
  let observe_ftran kern w =
    if Obs.Sink.active () then begin
      let nnz = ref 0 in
      let plen = k_ftran_pattern_len kern in
      if plen >= 0 then begin
        let pat = k_ftran_pattern kern in
        for idx = 0 to plen - 1 do
          if F.sign w.(pat.(idx)) <> 0 then incr nnz
        done
      end
      else Array.iter (fun v -> if F.sign v <> 0 then incr nnz) w;
      Obs.Counter.add c_ftran_nnz !nnz;
      Obs.Counter.add c_ftran_len (Array.length w)
    end

  (* ----- Frozen sessions: bounded-variable dual simplex -----------------
     A [session] compiles a {!Frozen.t} once into sparse columns with
     native per-column bounds — finite upper bounds are NOT materialised as
     rows, and equality rows get a slack fixed to [0,0] — and then solves
     any number of {!Frozen.Delta} bound overlays against it.

     Warm start.  The state keeps one invariant: its basic values, nonbasic
     bound statuses and reduced costs are consistent with the {e installed}
     delta, the one the last solve ran under (empty for a fresh state).
     Reduced costs depend only on (basis, costs) and a delta changes only
     bounds, so the last basis stays dual feasible under the next delta
     once every column whose bounds move is snapped to the bound its
     reduced-cost sign prefers.  A solve therefore moves the state by the
     diff between the installed delta and its own ([state_install]): it
     restores and applies bounds on the columns either delta binds,
     re-prices the columns it releases, and corrects the basic values with
     one sparse FTRAN of the nonbasic columns whose value moved.  The entry
     costs what the delta changes, not the program; a re-solve under the
     installed delta touches no column.  Only creation, the all-slack
     reset, refactorisation and append absorption re-derive the whole
     state.  Branch-and-bound fixes and responsibility-batch overlays both
     go through this one path.

     Every objective coefficient is non-negative ({!Frozen} enforces it at
     construction), so the all-slack basis is a universally available
     dual-feasible reset point.

     [sstate] is the compiled state for ONE matrix shape; the public
     [session] wraps it and swaps in a rewound and grown state when a
     delta carries other row/column appends (see [session_absorb]
     below). *)

  type sstate = {
    snrows : int;
    sncols : int;  (* structural + one slack per row *)
    snstruct : int;
    scols : (int * F.t) list array;  (* sparse column entries (row, coeff) *)
    srow_j : int array array;  (* CSR view of [scols] (slacks included): *)
    srow_v : F.t array array;  (* column ids / coefficients per row *)
    salpha : F.t array;  (* pivot-row scratch: alpha_j = brow · col_j *)
    salpha_stamp : int array;  (* validity stamp per [salpha] slot *)
    mutable salpha_stamp_val : int;
    stouched : int array;  (* scratch: columns touched by the alpha pass *)
    scost : F.t array;
    sinteger : bool array;  (* integrality flag per structural column *)
    sb : F.t array;
    base_lb : F.t array;
    base_ub : F.t option array;  (* None = +inf *)
    lb : F.t array;  (* under the installed delta *)
    ub : F.t option array;
    skern : basis_kernel;
    sbasis : int array;
    sbpos : int array;  (* basis position of each column, -1 when nonbasic *)
    sxb : F.t array;
    s_at_upper : bool array;
    sdarr : F.t array;  (* reduced costs, maintained across pivots/deltas *)
    (* Index of rows whose basic value violates a bound, maintained
       incrementally from the FTRAN pattern so the leaving-row choice scans
       candidates instead of every row.  [sviol_pos] maps a row to its slot
       (-1 when inside bounds); rebuilt from scratch by
       {!session_compute_xb}. *)
    sviol : int array;
    sviol_pos : int array;
    mutable sviol_n : int;
    (* Pricing skip set: basic columns and fixed columns can never enter,
       so the alpha pass does not price them.  The cost is that a fixed
       column's reduced cost goes stale while pivots run; the simplex
       multipliers [sy] = c_B B^-1 are kept current instead (each pivot
       adds a multiple of the BTRAN row it already computed), and a delta
       that releases a column re-prices it from them.  [sfixed] caches the
       fixed test under the installed bounds. *)
    sskip : bool array;
    sfixed : bool array;
    sy : F.t array;
    mutable sinst : (Model.var * int) list;  (* the installed delta's bindings *)
    schg : int array;  (* install scratch: the columns whose bounds move *)
    sold : F.t array;  (* install scratch: their values before the move *)
    mutable stotal_pivots : int;
        (* Lifetime pivot count; never reset.  Per-session (not a global
           counter) so parallel batches can report per-solve deltas without
           reading each other's work. *)
    mutable srefactors : int;  (* lifetime refactorisation count *)
  }

  (* The slack of a row carries coefficient +1 for <= and =, -1 for >= (so
     the slack itself lives in [0, +inf), or [0,0] for =). *)
  let slack_sign = function Model.Leq | Model.Eq -> F.one | Model.Geq -> F.neg F.one

  let session_fixed s j = match s.ub.(j) with Some u -> F.compare u s.lb.(j) <= 0 | None -> false

  let session_nb_value s j =
    if s.s_at_upper.(j) then match s.ub.(j) with Some u -> u | None -> s.lb.(j) else s.lb.(j)

  let session_row_violated s r =
    let jb = s.sbasis.(r) in
    let x = s.sxb.(r) in
    F.sign (F.sub s.lb.(jb) x) > 0
    || (match s.ub.(jb) with Some u -> F.sign (F.sub x u) > 0 | None -> false)

  let session_rebuild_viol s =
    s.sviol_n <- 0;
    for r = 0 to s.snrows - 1 do
      if session_row_violated s r then begin
        s.sviol_pos.(r) <- s.sviol_n;
        s.sviol.(s.sviol_n) <- r;
        s.sviol_n <- s.sviol_n + 1
      end
      else s.sviol_pos.(r) <- -1
    done

  (* Re-check one row after its basic value (or basis column) changed. *)
  let session_update_viol s r =
    let v = session_row_violated s r in
    let p = s.sviol_pos.(r) in
    if v && p < 0 then begin
      s.sviol_pos.(r) <- s.sviol_n;
      s.sviol.(s.sviol_n) <- r;
      s.sviol_n <- s.sviol_n + 1
    end
    else if (not v) && p >= 0 then begin
      let last = s.sviol.(s.sviol_n - 1) in
      s.sviol.(p) <- last;
      s.sviol_pos.(last) <- p;
      s.sviol_pos.(r) <- -1;
      s.sviol_n <- s.sviol_n - 1
    end

  (* xb = Binv (b - N x_N): valid whenever the kernel matches the basis. *)
  let session_compute_xb s =
    let n = s.snrows in
    let rhs = Array.sub s.sb 0 n in
    for j = 0 to s.sncols - 1 do
      if s.sbpos.(j) < 0 then begin
        let v = session_nb_value s j in
        if F.sign v <> 0 then
          List.iter (fun (i, c) -> rhs.(i) <- F.sub rhs.(i) (F.mul c v)) s.scols.(j)
      end
    done;
    let w = k_ftran_dense s.skern rhs in
    Array.blit w 0 s.sxb 0 n;
    session_rebuild_viol s

  (* Reset to the all-slack basis: reduced costs equal the raw costs (slack
     costs are zero) and every structural column sits at its lower bound —
     dual feasible because all costs are non-negative.  The all-slack basis
     matrix is diagonal (+-1), so the kernel refactor cannot fail. *)
  let session_reset s =
    Array.fill s.sbpos 0 s.sncols (-1);
    for i = 0 to s.snrows - 1 do
      s.sbasis.(i) <- s.snstruct + i;
      s.sbpos.(s.snstruct + i) <- i
    done;
    Array.fill s.s_at_upper 0 s.sncols false;
    for j = 0 to s.sncols - 1 do
      s.sskip.(j) <- s.sfixed.(j) || j >= s.snstruct;
      s.sdarr.(j) <- s.scost.(j)
    done;
    Array.fill s.sy 0 s.snrows F.zero;
    k_refactor s.skern s.sbasis;
    session_compute_xb s

  (* Columns and rows to lay out after a state's kept ones, read through
     accessors so that a frozen program and a delta's appends feed the same
     code.  Column [k] and row [k] count from the block's start; row
     entries name structural columns by their index in the grown state. *)
  type block = {
    b_ncols : int;
    b_col : int -> bool * int option * int;  (* integer, upper, objective *)
    b_nrows : int;
    b_row : int -> Model.sense * int;  (* sense, rhs *)
    b_row_size : int -> int;
    b_iter_row : int -> (Model.var -> int -> unit) -> unit;
  }

  let frozen_block fz =
    {
      b_ncols = Frozen.num_vars fz;
      b_col = (fun v -> (Frozen.is_integer fz v, Frozen.upper fz v, Frozen.objective fz v));
      b_nrows = Frozen.num_rows fz;
      b_row = (fun i -> (Frozen.row_sense fz i, Frozen.row_rhs fz i));
      b_row_size = Frozen.row_size fz;
      b_iter_row = Frozen.iter_row fz;
    }

  (* Appended columns and rows, as {!Frozen.Delta} lists them. *)
  let delta_block cols rows =
    let cols = Array.of_list cols and rows = Array.of_list rows in
    {
      b_ncols = Array.length cols;
      b_col = (fun k -> match cols.(k) with _, integer, upper, obj -> (integer, upper, obj));
      b_nrows = Array.length rows;
      b_row = (fun k -> match rows.(k) with sense, rhs, _ -> (sense, rhs));
      b_row_size = (fun k -> match rows.(k) with _, _, e -> List.length e);
      b_iter_row = (fun k f -> match rows.(k) with _, _, e -> List.iter (fun (v, c) -> f v c) e);
    }

  (* The one layout of a compiled state: the first [ks] structural columns
     and the first [kr] rows of [prev] (nothing without one), then the
     block's columns and rows.  Structurals are [0 .. nstruct-1] and the
     slack of row [i] is column [nstruct + i], so appending columns shifts
     every slack id and nothing else.  What [prev] compiled is kept, not
     re-derived: its column lists (trimmed of the rows dropped), its CSR
     row arrays (slack id patched in place, so [prev] is spent), costs,
     bounds and right-hand sides.  Kept rows never reference a dropped
     column (the caller's duty), and the block's rows append to the column
     lists in ascending row order, so the layout is the one a compile of
     the whole program gives.  The result has base bounds, an empty
     installed delta, a fresh kernel and no basis yet: the caller seeds one
     or calls [session_reset].  The record and its flat per-column and
     per-row arrays are new, so the solve loop keeps reading immutable
     fields; the matrix is not rebuilt. *)
  let layout_state ~kernel ?prev ~ks ~kr blk =
    let nstruct = ks + blk.b_ncols in
    let nrows = kr + blk.b_nrows in
    let ncols = nstruct + nrows in
    let scols = Array.make (max 1 ncols) [] in
    let srow_j = Array.make (max 1 nrows) [||] in
    let srow_v = Array.make (max 1 nrows) [||] in
    let scost = Array.make (max 1 ncols) F.zero in
    let base_ub = Array.make (max 1 ncols) None in
    let sinteger = Array.make (max 1 nstruct) false in
    let sb = Array.make (max 1 nrows) F.zero in
    (match prev with
    | None -> ()
    | Some p ->
      Array.blit p.scols 0 scols 0 ks;
      Array.blit p.scols p.snstruct scols nstruct kr;
      for i = kr to p.snrows - 1 do
        let rj = p.srow_j.(i) in
        for k = 0 to Array.length rj - 2 do
          let j = rj.(k) in
          if j < ks then scols.(j) <- List.filter (fun (r, _) -> r < kr) scols.(j)
        done
      done;
      for i = 0 to kr - 1 do
        let rj = p.srow_j.(i) in
        rj.(Array.length rj - 1) <- nstruct + i;
        srow_j.(i) <- rj;
        srow_v.(i) <- p.srow_v.(i)
      done;
      Array.blit p.scost 0 scost 0 ks;
      Array.blit p.base_ub 0 base_ub 0 ks;
      Array.blit p.base_ub p.snstruct base_ub nstruct kr;
      Array.blit p.sinteger 0 sinteger 0 ks;
      Array.blit p.sb 0 sb 0 kr);
    for k = 0 to blk.b_ncols - 1 do
      let integer, upper, obj = blk.b_col k in
      sinteger.(ks + k) <- integer;
      base_ub.(ks + k) <- Option.map F.of_int upper;
      scost.(ks + k) <- F.of_int obj
    done;
    (* The block's rows: CSR arrays (column ids ascending, the slack last)
       and, reversed per column, the entries they add to the column
       lists. *)
    let adds = Array.make (max 1 nstruct) [] in
    for k = 0 to blk.b_nrows - 1 do
      let i = kr + k in
      let sense, rhs = blk.b_row k in
      let len = blk.b_row_size k + 1 in
      let rj = Array.make len 0 and rv = Array.make len F.zero in
      let fill = ref 0 in
      blk.b_iter_row k (fun v c ->
          let cf = F.of_int c in
          rj.(!fill) <- v;
          rv.(!fill) <- cf;
          adds.(v) <- (i, cf) :: adds.(v);
          incr fill);
      let sign = slack_sign sense in
      rj.(len - 1) <- nstruct + i;
      rv.(len - 1) <- sign;
      srow_j.(i) <- rj;
      srow_v.(i) <- rv;
      scols.(nstruct + i) <- [ (i, sign) ];
      if sense = Model.Eq then base_ub.(nstruct + i) <- Some F.zero;
      sb.(i) <- F.of_int rhs
    done;
    for v = 0 to nstruct - 1 do
      match adds.(v) with [] -> () | a -> scols.(v) <- scols.(v) @ List.rev a
    done;
    let base_lb = Array.make (max 1 ncols) F.zero in
    let s =
      {
        snrows = nrows;
        sncols = ncols;
        snstruct = nstruct;
        scols;
        srow_j;
        srow_v;
        salpha = Array.make (max 1 ncols) F.zero;
        salpha_stamp = Array.make (max 1 ncols) 0;
        salpha_stamp_val = 0;
        stouched = Array.make (max 1 ncols) 0;
        scost;
        sinteger;
        sb;
        base_lb;
        base_ub;
        lb = Array.copy base_lb;
        ub = Array.copy base_ub;
        skern = make_kernel kernel ~nrows ~col:(fun j -> scols.(j));
        sbasis = Array.make (max 1 nrows) 0;
        sbpos = Array.make (max 1 ncols) (-1);
        sxb = Array.make (max 1 nrows) F.zero;
        s_at_upper = Array.make (max 1 ncols) false;
        sdarr = Array.make (max 1 ncols) F.zero;
        sviol = Array.make (max 1 nrows) 0;
        sviol_pos = Array.make (max 1 nrows) (-1);
        sviol_n = 0;
        sskip = Array.make (max 1 ncols) false;
        sfixed = Array.make (max 1 ncols) false;
        sy = Array.make (max 1 nrows) F.zero;
        sinst = [];
        schg = Array.make (max 1 ncols) 0;
        sold = Array.make (max 1 ncols) F.zero;
        stotal_pivots = (match prev with Some p -> p.stotal_pivots | None -> 0);
        srefactors = (match prev with Some p -> p.srefactors | None -> 0);
      }
    in
    for j = 0 to ncols - 1 do
      s.sfixed.(j) <- session_fixed s j
    done;
    s

  (* The reduced cost d_j = c_j - y a_j under the multipliers [sy]. *)
  let session_price s j =
    List.fold_left (fun acc (i, c) -> F.sub acc (F.mul s.sy.(i) c)) s.scost.(j) s.scols.(j)

  (* Recompute the multipliers y = c_B B^-1 (one BTRAN) and every reduced
     cost from them. *)
  let session_refresh_darr s =
    let y = k_btran s.skern (Array.init s.snrows (fun i -> s.scost.(s.sbasis.(i)))) in
    Array.blit y 0 s.sy 0 s.snrows;
    for j = 0 to s.sncols - 1 do
      s.sdarr.(j) <- (if s.sbpos.(j) >= 0 then F.zero else session_price s j)
    done

  (* Snap the nonbasic columns [col 0 .. col (n-1)] to the bound their
     reduced cost prefers; a fixed column sits at its single bound.  A
     column left with d < 0 and no finite upper bound (one a delta has just
     released) makes the basis dual infeasible for these bounds: the
     all-slack reset takes over, and the result is [false].  The one status
     repair behind both the solve entry and every refactorisation. *)
  let session_repair s n col =
    try
      for k = 0 to n - 1 do
        let j = col k in
        if s.sbpos.(j) < 0 then
          s.s_at_upper.(j) <-
            (not s.sfixed.(j))
            && F.sign s.sdarr.(j) < 0
            && match s.ub.(j) with Some _ -> true | None -> raise Exit
      done;
      true
    with Exit ->
      session_reset s;
      false

  (* Refactorise the current basis and re-derive reduced costs, nonbasic
     statuses and basic values from it.  A numerically singular basis
     (floats only) falls back to the always-valid all-slack start rather
     than failing the solve. *)
  let session_refactorize s =
    match k_refactor s.skern s.sbasis with
    | () ->
      session_refresh_darr s;
      if session_repair s s.sncols Fun.id then session_compute_xb s
    | exception Basis.Singular -> session_reset s

  (* In-place ascending heapsort of [a.(0 .. n-1)]: the pivot's candidate
     list, put in column order without a copy. *)
  let sift (a : int array) root len =
    let root = ref root in
    let continue = ref true in
    while !continue do
      let child = (2 * !root) + 1 in
      if child >= len then continue := false
      else begin
        let child = if child + 1 < len && a.(child + 1) > a.(child) then child + 1 else child in
        if a.(child) > a.(!root) then begin
          let tmp = a.(!root) in
          a.(!root) <- a.(child);
          a.(child) <- tmp;
          root := child
        end
        else continue := false
      end
    done

  let sort_prefix a n =
    for i = (n / 2) - 1 downto 0 do
      sift a i n
    done;
    for last = n - 1 downto 1 do
      let tmp = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- tmp;
      sift a 0 last
    done

  (* The bounded-variable dual simplex.  Invariants: darr is dual feasible
     for the nonbasic positions (at lower => d >= 0, at upper => d <= 0,
     fixed => unconstrained), the kernel factorises the basis, xb holds the
     basic values.  Returns when every basic value is within its bounds
     (`Optimal) or a bound-violated row admits no entering column
     (`Infeasible — a valid Farkas certificate even with fixed columns
     excluded, since those sit at equal lower and upper bounds). *)
  let session_run s =
    let n = s.snrows in
    let bland = ref false in
    let iters = ref 0 in
    let max_iters = 20_000 + (60 * s.sncols) in
    let fall_to_bland () =
      if not !bland then begin
        bland := true;
        Obs.Counter.incr c_bland_falls
      end
    in
    let refactor () =
      (* After a singular fallback the solve continues from the all-slack
         state. *)
      session_refactorize s;
      s.srefactors <- s.srefactors + 1;
      Obs.Counter.incr c_refactors;
      observe_factor s.skern
    in
    let result = ref `Optimal in
    let continue = ref true in
    while !continue do
      incr iters;
      if !iters > max_iters then failwith "Simplex.session_solve: dual iteration limit";
      if !iters > max_iters / 2 then fall_to_bland ();
      (* Refactorise on the kernel's own cadence: the dense reference
         bounds drift (~max(300, n) etas), the sparse kernel additionally
         bounds eta fill.  The cadence lives on the kernel, so it carries
         across the many short solves of a warm batch. *)
      if k_should_refactor s.skern then refactor ();
      (* Leaving row: a basic value outside its bounds, drawn from the
         incrementally maintained violation index.  rho = +1 when the
         leaver must rise to its lower bound, -1 when it must drop to its
         upper bound (an int: multiplying by it is a negation or nothing);
         largest violation wins.  The index holds rows in arbitrary
         order, so ties — equal violations, and Bland's
         smallest-basis-index rule — break explicitly towards the choices
         the old ascending full scan made. *)
      let leave = ref (-1) in
      let leave_rho = ref 1 in
      let best_viol = ref F.zero in
      for vi = 0 to s.sviol_n - 1 do
        let r = s.sviol.(vi) in
        let jb = s.sbasis.(r) in
        let x = s.sxb.(r) in
        let low = F.sub s.lb.(jb) x in
        let rho = if F.sign low > 0 then 1 else -1 in
        let viol =
          if rho > 0 then low
          else
            match s.ub.(jb) with
            | Some u ->
              let high = F.sub x u in
              if F.sign high > 0 then high else F.zero
            | None -> F.zero
        in
        if F.sign viol > 0 then
          if !leave < 0 then begin
            leave := r;
            leave_rho := rho;
            best_viol := viol
          end
          else if !bland then begin
            if s.sbasis.(r) < s.sbasis.(!leave) then begin
              leave := r;
              leave_rho := rho;
              best_viol := viol
            end
          end
          else begin
            let c = F.compare viol !best_viol in
            if c > 0 || (c = 0 && r < !leave) then begin
              leave := r;
              leave_rho := rho;
              best_viol := viol
            end
          end
      done;
      if !leave < 0 then continue := false
      else begin
        let r = !leave in
        let rho = !leave_rho in
        let brow = k_btran_unit s.skern r in
        (* One sparse row-wise pass computes every alpha_j = brow · col_j at
           a cost proportional to the nonzero rows of [brow] (via the CSR
           view), not to the matrix: only the touched columns can be
           eligible below (alpha = 0 fails both sign tests), so the ratio
           test and the dual update scan candidates, not all columns.  The
           candidate list is sorted so the scan order — and hence every
           tie-break, including Bland's smallest-index rule — matches the
           plain column sweep it replaces; it is sorted in place, the
           [stouched] scratch itself. *)
        s.salpha_stamp_val <- s.salpha_stamp_val + 1;
        let stamp = s.salpha_stamp_val in
        let ntouched = ref 0 in
        for i = 0 to n - 1 do
          let bi = brow.(i) in
          if F.sign bi <> 0 then begin
            let rj = s.srow_j.(i) and rv = s.srow_v.(i) in
            for k = 0 to Array.length rj - 1 do
              let jc = rj.(k) in
              if not s.sskip.(jc) then begin
                let contrib = F.mul bi rv.(k) in
                if s.salpha_stamp.(jc) = stamp then s.salpha.(jc) <- F.add s.salpha.(jc) contrib
                else begin
                  s.salpha_stamp.(jc) <- stamp;
                  s.salpha.(jc) <- contrib;
                  s.stouched.(!ntouched) <- jc;
                  incr ntouched
                end
              end
            done
          end
        done;
        let ntouched = !ntouched in
        sort_prefix s.stouched ntouched;
        (* Dual ratio test: an entering candidate must move x_B(r) towards
           its violated bound (sign of rho * alpha decides), and the one
           with the smallest |d / alpha| keeps every other reduced cost on
           the right side; prefer large |alpha| among ties, smallest index
           under Bland. *)
        let enter = ref (-1) in
        let enter_alpha = ref F.zero in
        let best_theta = ref F.zero in
        let j = ref 0 in
        while !j < ntouched && not (!bland && !enter >= 0) do
          let jj = s.stouched.(!j) in
          if s.sbpos.(jj) < 0 && not s.sfixed.(jj) then begin
            let a = s.salpha.(jj) in
            let ra = if rho > 0 then a else F.neg a in
            let at_upper = s.s_at_upper.(jj) in
            if if at_upper then F.sign ra > 0 else F.sign ra < 0 then begin
              let d = s.sdarr.(jj) in
              let ratio =
                if at_upper then F.div (F.neg (if F.sign d > 0 then F.zero else d)) ra
                else F.div (if F.sign d < 0 then F.zero else d) (F.neg ra)
              in
              let better =
                !enter < 0
                || F.compare ratio !best_theta < 0
                || (F.compare ratio !best_theta = 0
                   && F.compare (F.abs a) (F.abs !enter_alpha) > 0)
              in
              if better then begin
                enter := jj;
                enter_alpha := a;
                best_theta := ratio
              end
            end
          end;
          incr j
        done;
        if !enter < 0 then begin
          result := `Infeasible;
          continue := false
        end
        else begin
          let q = !enter in
          let wcol = k_ftran s.skern s.scols.(q) in
          observe_ftran s.skern wcol;
          if k_etas s.skern > 25 && F.compare (F.abs wcol.(r)) F.pivot_tol <= 0 then
            (* Noise-level pivot on a stale basis: refactorise and retry
               on fresh numbers. *)
            refactor ()
          else begin
            let jb_leave = s.sbasis.(r) in
            let target =
              if rho > 0 then s.lb.(jb_leave)
              else match s.ub.(jb_leave) with Some u -> u | None -> assert false
            in
            let step = F.div (F.sub s.sxb.(r) target) wcol.(r) in
            let entering_value = F.add (session_nb_value s q) step in
            let plen = k_ftran_pattern_len s.skern in
            let nstep = F.neg step in
            (if plen >= 0 then begin
               (* The pattern covers every nonzero of [wcol]: the basic
                  values move only there (same guard as {!F.axpy} — skip a
                  zero multiplier entirely). *)
               if F.compare nstep F.zero <> 0 then begin
                 let pat = k_ftran_pattern s.skern in
                 for idx = 0 to plen - 1 do
                   let i = pat.(idx) in
                   s.sxb.(i) <- F.add s.sxb.(i) (F.mul nstep wcol.(i))
                 done
               end
             end
             else F.axpy nstep wcol s.sxb);
            (* Dual update before the basis update (alpha reads the row of
               the pre-pivot inverse, captured in [brow]). *)
            let theta = F.div s.sdarr.(q) wcol.(r) in
            if F.sign theta <> 0 then begin
              (* d_j -= theta alpha_j is y += theta brow, priced out. *)
              for i = 0 to n - 1 do
                let bi = brow.(i) in
                if F.sign bi <> 0 then s.sy.(i) <- F.add s.sy.(i) (F.mul theta bi)
              done;
              for c = 0 to ntouched - 1 do
                let k = s.stouched.(c) in
                if s.sbpos.(k) < 0 && k <> q then
                  s.sdarr.(k) <- F.sub s.sdarr.(k) (F.mul theta s.salpha.(k))
              done
            end;
            s.sdarr.(jb_leave) <- F.neg theta;
            s.sdarr.(q) <- F.zero;
            s.sbpos.(jb_leave) <- -1;
            s.sskip.(jb_leave) <- s.sfixed.(jb_leave);
            s.s_at_upper.(jb_leave) <- rho < 0;
            s.sbpos.(q) <- r;
            s.sskip.(q) <- true;
            s.sbasis.(r) <- q;
            s.sxb.(r) <- entering_value;
            k_update s.skern ~r ~wcol;
            (* Re-check the violation status of every row the pivot could
               have moved (the pattern rows; [r] is among them). *)
            if plen >= 0 then begin
              let pat = k_ftran_pattern s.skern in
              for idx = 0 to plen - 1 do
                session_update_viol s pat.(idx)
              done
            end
            else session_rebuild_viol s;
            s.stotal_pivots <- s.stotal_pivots + 1;
            Obs.Counter.incr c_pivots;
            Obs.Counter.record_max c_eta_peak (k_etas s.skern)
          end
        end
      end
    done;
    !result

  let session_extract s =
    let nvars = s.snstruct in
    let x = Array.make nvars F.zero in
    for j = 0 to nvars - 1 do
      if s.sbpos.(j) < 0 then x.(j) <- session_nb_value s j
    done;
    for r = 0 to s.snrows - 1 do
      if s.sbasis.(r) < nvars then x.(s.sbasis.(r)) <- s.sxb.(r)
    done;
    let objective = ref F.zero in
    for v = 0 to nvars - 1 do
      if F.sign s.scost.(v) <> 0 then objective := F.add !objective (F.mul s.scost.(v) x.(v))
    done;
    Optimal { objective = !objective; solution = x }

  (* Move column [j] to the bounds [lb, ub] at a solve entry, recording it
     as change [n] together with its value under the old bounds. *)
  let session_move s n j lb ub =
    s.schg.(n) <- j;
    s.sold.(n) <- session_nb_value s j;
    s.lb.(j) <- lb;
    s.ub.(j) <- ub;
    let fx = session_fixed s j in
    s.sfixed.(j) <- fx;
    s.sskip.(j) <- fx || s.sbpos.(j) >= 0;
    n + 1

  (* Move the state from the installed delta to the one with [bindings]
     (ascending by variable, checked feasible), keeping the invariant.  Only
     the columns whose bounds differ between the two are touched:
     - bounds: restore the old fixes, apply the new ones;
     - reduced costs: a released column, which missed the dual updates of
       every pivot while it was fixed, is re-priced from [sy];
     - statuses: [session_repair] on the moved columns;
     - basic values: xb -= B^-1 (sum_j a_j dx_j) over the nonbasic columns
       whose value moved, one sparse FTRAN, with the violation index
       re-checked on its pattern and on the rows of moved basic columns. *)
  let state_install s bindings =
    let restore n v = session_move s n v s.base_lb.(v) s.base_ub.(v) in
    let apply n v k =
      let kf = F.of_int k in
      session_move s n v kf (Some kf)
    in
    let rec merge n old nw =
      match (old, nw) with
      | [], [] -> n
      | (v, _) :: old', [] -> merge (restore n v) old' []
      | [], (v, k) :: nw' -> merge (apply n v k) [] nw'
      | (v, k) :: old', (v', k') :: nw' ->
        if v < v' then merge (restore n v) old' nw
        else if v > v' then merge (apply n v' k') old nw'
        else if k = k' then merge n old' nw'
        else merge (apply n v' k') old' nw'
    in
    let n = merge 0 s.sinst bindings in
    s.sinst <- bindings;
    for k = 0 to n - 1 do
      let j = s.schg.(k) in
      if s.sbpos.(j) < 0 && not s.sfixed.(j) then s.sdarr.(j) <- session_price s j
    done;
    (* A failed repair has reset the state to all-slack, xb included. *)
    if session_repair s n (fun k -> s.schg.(k)) then begin
      let rhs = ref [] in
      for k = 0 to n - 1 do
        let j = s.schg.(k) in
        if s.sbpos.(j) < 0 then begin
          let dx = F.sub (session_nb_value s j) s.sold.(k) in
          if F.sign dx <> 0 then
            List.iter (fun (i, c) -> rhs := (i, F.mul c dx) :: !rhs) s.scols.(j)
        end
      done;
      (match !rhs with
      | [] -> ()
      | rhs ->
        let w = k_ftran s.skern rhs in
        let plen = k_ftran_pattern_len s.skern in
        if plen >= 0 then begin
          let pat = k_ftran_pattern s.skern in
          for idx = 0 to plen - 1 do
            let r = pat.(idx) in
            s.sxb.(r) <- F.sub s.sxb.(r) w.(r);
            session_update_viol s r
          done
        end
        else begin
          F.axpy (F.neg F.one) w s.sxb;
          session_rebuild_viol s
        end);
      for k = 0 to n - 1 do
        let r = s.sbpos.(s.schg.(k)) in
        if r >= 0 then session_update_viol s r
      done
    end

  let state_solve s delta =
    let bindings = Frozen.Delta.bindings delta in
    (* An infeasible fix is rejected before any state is touched. *)
    let infeasible =
      List.fold_left
        (fun bad (v, k) ->
          if v < 0 || v >= s.snstruct then invalid_arg "Simplex.session_solve: unknown variable";
          bad || k < 0
          || match s.base_ub.(v) with Some u -> F.compare (F.of_int k) u > 0 | None -> false)
        false bindings
    in
    if infeasible then Infeasible
    else begin
      state_install s bindings;
      match session_run s with
      | `Optimal -> session_extract s
      | `Infeasible when k_etas s.skern = 0 ->
        (* The verdict was reached on a freshly factorised basis — no update
           drift to distrust. *)
        Infeasible
      | `Infeasible -> (
        (* Never trust an infeasibility verdict reached on a basis with
           updates on it: accumulated drift in the factors/darr can hide
           every eligible entering column.  Re-derive on a fresh
           factorisation of the *current* basis — exact factors, exactly
           recomputed duals, statuses and basics — which removes the drift
           while keeping the warm start (an all-slack restart here would pay
           a full cold solve per infeasible node). *)
        session_refactorize s;
        match session_run s with `Infeasible -> Infeasible | `Optimal -> session_extract s)
    end

  (* ----- Public sessions: append absorption over the compiled state ----
     A [session] remembers the base frozen program and which appends its
     current [sstate] was laid out for.  The base is compiled once, at
     creation.  Solving under a delta whose appends differ absorbs them in
     one step: rewind the state to the longest common prefix of the
     absorbed appends and the new ones, then grow it by the rest
     ([layout_state]).  When nothing was rewound the previous optimal basis
     is re-seeded (old structurals keep their index, old slack [i] becomes
     column [nstruct' + i], new rows enter slack-basic) and refactorised.
     That seed is always dual feasible: appended rows have zero duals
     (their slacks are basic with zero cost), so every old reduced cost is
     unchanged, and appended columns — which by construction of frozen
     rows cannot appear in base rows — price out at their own non-negative
     objective.  Base rows are immutable, which is the invariant making
     this sound.  After a rewind the state restarts from the all-slack
     basis.  Either way the absorbed state has base bounds and an empty
     installed delta: the next solve installs its fixes by the usual
     diff. *)

  type session = {
    ses_base : Frozen.t;
    ses_choice : Basis.choice;
    mutable ses_st : sstate;
    mutable ses_abs : Frozen.Delta.t;  (* appends the state is laid out for *)
  }

  let create_session ?(kernel = `Sparse) fz =
    let st = layout_state ~kernel ~ks:0 ~kr:0 (frozen_block fz) in
    session_reset st;
    { ses_base = fz; ses_choice = kernel; ses_st = st; ses_abs = Frozen.Delta.empty }

  (* Lifetime work totals, for per-solve deltas in branch-and-bound and the
     enriched public stats records.  Totals survive append absorption (the
     re-laid-out state inherits them), so before/after deltas stay
     monotone. *)
  let session_pivots s = s.ses_st.stotal_pivots
  let session_refactors s = s.ses_st.srefactors

  let session_absorb_appends sess delta =
    let old = sess.ses_st in
    let nrows0 = Frozen.num_rows sess.ses_base in
    let kc, kra = Frozen.Delta.common_appends sess.ses_abs delta in
    let ks = Frozen.num_vars sess.ses_base + kc in
    (* A kept row may not reference a dropped column: keep only the rows
       before the first that does (its slack is last, so its largest
       structural id is second to last). *)
    let rec keep_rows i =
      if i >= nrows0 + kra then i
      else
        let rj = old.srow_j.(i) in
        let n = Array.length rj in
        if n >= 2 && rj.(n - 2) >= ks then i else keep_rows (i + 1)
    in
    let kr = if ks < old.snstruct then keep_rows nrows0 else nrows0 + kra in
    let cols = Frozen.Delta.appended_cols_from delta kc in
    let rows = Frozen.Delta.appended_rows_from delta (kr - nrows0) in
    let nstruct = ks + List.length cols in
    (* Reject a bad row before the old state is spent. *)
    List.iter
      (fun (_, _, e) ->
        List.iter
          (fun (v, _) ->
            if v >= nstruct then invalid_arg "Simplex.session_solve: appended row variable out of range")
          e)
      rows;
    let warm = ks = old.snstruct && kr = old.snrows && old.snrows > 0 in
    let st = layout_state ~kernel:sess.ses_choice ~prev:old ~ks ~kr (delta_block cols rows) in
    if warm then begin
      (* Warm seed from the previous basis (see the block comment above). *)
      for i = 0 to old.snrows - 1 do
        let jb = old.sbasis.(i) in
        st.sbasis.(i) <- (if jb < old.snstruct then jb else st.snstruct + (jb - old.snstruct))
      done;
      for i = old.snrows to st.snrows - 1 do
        st.sbasis.(i) <- st.snstruct + i
      done;
      for i = 0 to st.snrows - 1 do
        st.sbpos.(st.sbasis.(i)) <- i
      done;
      for j = 0 to st.sncols - 1 do
        st.sskip.(j) <- st.sfixed.(j) || st.sbpos.(j) >= 0
      done;
      (* Reduced costs, nonbasic statuses and basic values all follow from
         the seeded basis, so none are copied. *)
      session_refactorize st
    end
    else session_reset st;
    sess.ses_st <- st;
    sess.ses_abs <- delta

  let session_absorb sess delta =
    if not (Frozen.Delta.same_appends delta sess.ses_abs) then session_absorb_appends sess delta

  let session_solve sess delta =
    session_absorb sess delta;
    state_solve sess.ses_st delta

  (* The absorbed program, read from the compiled state. *)
  let session_num_vars sess = sess.ses_st.snstruct
  let session_objective sess v = sess.ses_st.scost.(v)
  let session_upper sess v = sess.ses_st.base_ub.(v)
  let session_is_integer sess v = sess.ses_st.sinteger.(v)

  (* [Frozen.check_feasible] on the absorbed program, with the same float
     sums in the same order: row entries in ascending column order (the
     slack, last, left out), then the delta's fixes and the base bounds. *)
  let session_feasible sess delta x =
    let s = sess.ses_st in
    let eps = 1e-6 in
    let ok = ref true in
    for i = 0 to s.snrows - 1 do
      let rj = s.srow_j.(i) and rv = s.srow_v.(i) in
      let last = Array.length rj - 1 in
      let lhs = ref 0.0 in
      for k = 0 to last - 1 do
        lhs := !lhs +. (F.to_float rv.(k) *. x.(rj.(k)))
      done;
      let frhs = F.to_float s.sb.(i) in
      let sat =
        (* The slack's sign and bounds tell the row's sense. *)
        if F.sign rv.(last) < 0 then !lhs >= frhs -. eps
        else
          match s.base_ub.(rj.(last)) with
          | None -> !lhs <= frhs +. eps
          | Some _ -> Float.abs (!lhs -. frhs) <= eps
      in
      if not sat then ok := false
    done;
    List.iter
      (fun (v, k) -> if Float.abs (x.(v) -. float_of_int k) > eps then ok := false)
      (Frozen.Delta.bindings delta);
    for v = 0 to s.snstruct - 1 do
      if x.(v) < -.eps then ok := false;
      match s.base_ub.(v) with
      | Some u -> if x.(v) > F.to_float u +. eps then ok := false
      | None -> ()
    done;
    !ok

  let solve_frozen ?(delta = Frozen.Delta.empty) ?kernel fz =
    session_solve (create_session ?kernel fz) delta
end
