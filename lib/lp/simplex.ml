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

(* Cross-field instrumentation: the float and exact instantiations of the
   functor share one set of counters ({!Obs.Counter.create} is idempotent by
   name), and every bump is dropped unless a trace sink is installed, so the
   per-pivot cost with telemetry off is a single atomic load. *)
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

module Make (F : Numeric.Field.S) = struct
  type outcome = Optimal of { objective : F.t; solution : F.t array } | Infeasible

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

  let observe_ftran w =
    if Obs.Sink.active () then begin
      let nnz = ref 0 in
      Array.iter (fun v -> if F.sign v <> 0 then incr nnz) w;
      Obs.Counter.add c_ftran_nnz !nnz;
      Obs.Counter.add c_ftran_len (Array.length w)
    end

  (* ----- Frozen sessions: bounded-variable dual simplex -----------------
     A [session] compiles a {!Frozen.t} once into sparse columns with
     native per-column bounds — finite upper bounds are NOT materialised as
     rows, and equality rows get a slack fixed to [0,0] — and then solves
     any number of {!Frozen.Delta} bound overlays against it.  The dual
     simplex needs a dual-feasible start, which bounds make trivial to
     maintain: reduced costs depend only on (basis, costs), and a delta
     changes only bounds, so the optimal basis of the previous solve stays
     dual feasible for the next one after snapping each nonbasic variable
     to the bound its reduced-cost sign prefers.  That is the whole
     warm-start protocol; branch-and-bound fixes and responsibility-batch
     overlays both go through it.

     Every objective coefficient is non-negative ({!Frozen} enforces it at
     construction), so the all-slack basis is a universally available
     dual-feasible reset point.

     [sstate] is the compiled state for ONE matrix shape; the public
     [session] wraps it and swaps in a re-compiled state when a delta
     carries row/column appends (see [session_absorb] below). *)

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
    sb : F.t array;
    base_lb : F.t array;
    base_ub : F.t option array;  (* None = +inf *)
    lb : F.t array;  (* after the current delta *)
    ub : F.t option array;
    skern : basis_kernel;
    sbasis : int array;
    sxb : F.t array;
    s_in_basis : bool array;
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
    (* Pricing skip set: basic columns and columns fixed by the current
       delta can never enter, so the alpha pass does not price them.  The
       cost is that a fixed column's reduced cost goes stale during a solve
       (its incremental dual update is skipped too); [sdarr_stale] records
       that, and the next solve entry recomputes darr from the basis before
       trusting signs.  [sfixed] caches the per-delta fixed test. *)
    sskip : bool array;
    sfixed : bool array;
    mutable sdarr_stale : bool;
    mutable stotal_pivots : int;
        (* Lifetime pivot count; never reset.  Per-session (not a global
           counter) so parallel batches can report per-solve deltas without
           reading each other's work. *)
    mutable srefactors : int;  (* lifetime refactorisation count *)
  }

  (* Slack of row i carries coefficient [slack_sign i]: +1 for <= and =,
     -1 for >= (so the slack itself lives in [0, +inf), or [0,0] for =). *)
  let slack_sign fz i =
    match Frozen.row_sense fz i with Model.Leq | Model.Eq -> F.one | Model.Geq -> F.neg F.one

  (* Reset to the all-slack basis: reduced costs equal the raw costs (slack
     costs are zero) and every structural column sits at its lower bound —
     dual feasible because all costs are non-negative.  The all-slack basis
     matrix is diagonal (+-1), so the kernel refactor cannot fail. *)
  let session_reset s =
    let n = s.snrows in
    for i = 0 to n - 1 do
      s.sbasis.(i) <- s.snstruct + i
    done;
    Array.fill s.s_at_upper 0 s.sncols false;
    for j = 0 to s.sncols - 1 do
      s.s_in_basis.(j) <- j >= s.snstruct;
      s.sskip.(j) <- s.sfixed.(j) || j >= s.snstruct;
      s.sdarr.(j) <- s.scost.(j)
    done;
    k_refactor s.skern s.sbasis

  let create_state ?(kernel = `Sparse) fz =
    let nstruct = Frozen.num_vars fz in
    let nrows = Frozen.num_rows fz in
    let ncols = nstruct + nrows in
    let scols = Array.make (max 1 ncols) [] in
    for v = 0 to nstruct - 1 do
      let acc = ref [] in
      Frozen.iter_col fz v (fun i c -> acc := (i, F.of_int c) :: !acc);
      scols.(v) <- List.rev !acc
    done;
    for i = 0 to nrows - 1 do
      scols.(nstruct + i) <- [ (i, slack_sign fz i) ]
    done;
    (* The CSR transpose of [scols], for the dual pivot's row-wise alpha
       pass.  Column ids come out ascending per row (j sweeps upward). *)
    let row_counts = Array.make (max 1 nrows) 0 in
    Array.iter (List.iter (fun (i, _) -> row_counts.(i) <- row_counts.(i) + 1)) scols;
    let srow_j = Array.init (max 1 nrows) (fun i -> Array.make (max 1 row_counts.(i)) 0) in
    let srow_v = Array.init (max 1 nrows) (fun i -> Array.make (max 1 row_counts.(i)) F.zero) in
    let fill = Array.make (max 1 nrows) 0 in
    Array.iteri
      (fun j entries ->
        List.iter
          (fun (i, c) ->
            srow_j.(i).(fill.(i)) <- j;
            srow_v.(i).(fill.(i)) <- c;
            fill.(i) <- fill.(i) + 1)
          entries)
      scols;
    Array.iteri
      (fun i filled ->
        if filled < Array.length srow_j.(i) then begin
          srow_j.(i) <- Array.sub srow_j.(i) 0 filled;
          srow_v.(i) <- Array.sub srow_v.(i) 0 filled
        end)
      fill;
    let scost = Array.make (max 1 ncols) F.zero in
    for v = 0 to nstruct - 1 do
      scost.(v) <- F.of_int (Frozen.objective fz v)
    done;
    let base_lb = Array.make (max 1 ncols) F.zero in
    let base_ub = Array.make (max 1 ncols) None in
    for v = 0 to nstruct - 1 do
      base_ub.(v) <- Option.map F.of_int (Frozen.upper fz v)
    done;
    for i = 0 to nrows - 1 do
      if Frozen.row_sense fz i = Model.Eq then base_ub.(nstruct + i) <- Some F.zero
    done;
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
        sb = Array.init (max 1 nrows) (fun i -> if i < nrows then F.of_int (Frozen.row_rhs fz i) else F.zero);
        base_lb;
        base_ub;
        lb = Array.copy base_lb;
        ub = Array.copy base_ub;
        skern = make_kernel kernel ~nrows ~col:(fun j -> scols.(j));
        sbasis = Array.make (max 1 nrows) 0;
        sxb = Array.make (max 1 nrows) F.zero;
        s_in_basis = Array.make (max 1 ncols) false;
        s_at_upper = Array.make (max 1 ncols) false;
        sdarr = Array.make (max 1 ncols) F.zero;
        sviol = Array.make (max 1 nrows) 0;
        sviol_pos = Array.make (max 1 nrows) (-1);
        sviol_n = 0;
        sskip = Array.make (max 1 ncols) false;
        sfixed = Array.make (max 1 ncols) false;
        sdarr_stale = false;
        stotal_pivots = 0;
        srefactors = 0;
      }
    in
    session_reset s;
    s

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
      if not s.s_in_basis.(j) then begin
        let v = session_nb_value s j in
        if F.sign v <> 0 then
          List.iter (fun (i, c) -> rhs.(i) <- F.sub rhs.(i) (F.mul c v)) s.scols.(j)
      end
    done;
    let w = k_ftran_dense s.skern rhs in
    Array.blit w 0 s.sxb 0 n;
    session_rebuild_viol s

  let session_refresh_darr s =
    let n = s.snrows in
    let cb = Array.make n F.zero in
    for i = 0 to n - 1 do
      cb.(i) <- s.scost.(s.sbasis.(i))
    done;
    let y = k_btran s.skern cb in
    for j = 0 to s.sncols - 1 do
      if s.s_in_basis.(j) then s.sdarr.(j) <- F.zero
      else begin
        let acc = ref s.scost.(j) in
        List.iter (fun (i, c) -> acc := F.sub !acc (F.mul y.(i) c)) s.scols.(j);
        s.sdarr.(j) <- !acc
      end
    done

  exception Session_singular

  let session_refactorize s =
    (try k_refactor s.skern s.sbasis
     with Basis.Singular ->
       (* A numerically singular basis (floats only): fall back to the
          always-valid all-slack start rather than failing the solve. *)
       session_reset s;
       session_compute_xb s;
       raise Session_singular);
    session_compute_xb s;
    session_refresh_darr s

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
      (match session_refactorize s with
      | () -> ()
      | exception Session_singular ->
        (* session_reset already restored the all-slack state (darr equals
           the raw costs there), so the solve continues from the cold
           start. *)
        ());
      s.srefactors <- s.srefactors + 1;
      Obs.Counter.incr c_refactors;
      observe_factor s.skern
    in
    let result = ref `Optimal in
    let continue = ref true in
    let piv0 = s.stotal_pivots in
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
         upper bound; largest violation wins.  The index holds rows in
         arbitrary order, so ties — equal violations, and Bland's
         smallest-basis-index rule — break explicitly towards the choices
         the old ascending full scan made. *)
      let leave = ref (-1) in
      let leave_rho = ref F.one in
      let best_viol = ref F.zero in
      for vi = 0 to s.sviol_n - 1 do
        let r = s.sviol.(vi) in
        let jb = s.sbasis.(r) in
        let x = s.sxb.(r) in
        let viol, rho =
          let low = F.sub s.lb.(jb) x in
          if F.sign low > 0 then (low, F.one)
          else
            match s.ub.(jb) with
            | Some u ->
              let high = F.sub x u in
              if F.sign high > 0 then (high, F.neg F.one) else (F.zero, F.one)
            | None -> (F.zero, F.one)
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
           plain column sweep it replaces. *)
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
        let cand = Array.sub s.stouched 0 !ntouched in
        Array.sort compare cand;
        (* Dual ratio test: an entering candidate must move x_B(r) towards
           its violated bound (sign of rho * alpha decides), and the one
           with the smallest |d / alpha| keeps every other reduced cost on
           the right side; prefer large |alpha| among ties, smallest index
           under Bland. *)
        let enter = ref (-1) in
        let enter_alpha = ref F.zero in
        let best_theta = ref F.zero in
        let j = ref 0 in
        while !j < Array.length cand && not (!bland && !enter >= 0) do
          let jj = cand.(!j) in
          if (not s.s_in_basis.(jj)) && not s.sfixed.(jj) then begin
            let a = s.salpha.(jj) in
            let ra = F.mul rho a in
            let eligible, ratio =
              if s.s_at_upper.(jj) then
                if F.sign ra > 0 then begin
                  let d = s.sdarr.(jj) in
                  let d = if F.sign d > 0 then F.zero else d in
                  (true, F.div (F.neg d) ra)
                end
                else (false, F.zero)
              else if F.sign ra < 0 then begin
                let d = s.sdarr.(jj) in
                let d = if F.sign d < 0 then F.zero else d in
                (true, F.div d (F.neg ra))
              end
              else (false, F.zero)
            in
            if eligible then begin
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
          observe_ftran wcol;
          if k_etas s.skern > 25 && F.compare (F.abs wcol.(r)) F.pivot_tol <= 0 then
            (* Noise-level pivot on a stale basis: refactorise and retry
               on fresh numbers. *)
            refactor ()
          else begin
            let jb_leave = s.sbasis.(r) in
            let target =
              if F.sign rho > 0 then s.lb.(jb_leave)
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
            if F.sign theta <> 0 then
              Array.iter
                (fun k ->
                  if (not s.s_in_basis.(k)) && k <> q then
                    s.sdarr.(k) <- F.sub s.sdarr.(k) (F.mul theta s.salpha.(k)))
                cand;
            s.sdarr.(jb_leave) <- F.neg theta;
            s.sdarr.(q) <- F.zero;
            s.s_in_basis.(jb_leave) <- false;
            s.sskip.(jb_leave) <- s.sfixed.(jb_leave);
            s.s_at_upper.(jb_leave) <- F.sign rho < 0;
            s.s_in_basis.(q) <- true;
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
    (* Without a pivot no dual update was skipped: darr is still exact. *)
    if s.stotal_pivots = piv0 then s.sdarr_stale <- false;
    !result

  let session_extract s =
    let nvars = s.snstruct in
    let x = Array.make nvars F.zero in
    for j = 0 to nvars - 1 do
      if not s.s_in_basis.(j) then x.(j) <- session_nb_value s j
    done;
    for r = 0 to s.snrows - 1 do
      if s.sbasis.(r) < nvars then x.(s.sbasis.(r)) <- s.sxb.(r)
    done;
    let objective = ref F.zero in
    for v = 0 to nvars - 1 do
      if F.sign s.scost.(v) <> 0 then objective := F.add !objective (F.mul s.scost.(v) x.(v))
    done;
    Optimal { objective = !objective; solution = x }

  let state_solve s delta =
    (* Install the delta over the base bounds. *)
    Array.blit s.base_lb 0 s.lb 0 (max 1 s.sncols);
    Array.blit s.base_ub 0 s.ub 0 (max 1 s.sncols);
    let infeasible_fix = ref false in
    List.iter
      (fun (v, k) ->
        if v < 0 || v >= s.snstruct then invalid_arg "Simplex.session_solve: unknown variable";
        let kf = F.of_int k in
        (match s.base_ub.(v) with
        | Some u when F.compare kf u > 0 -> infeasible_fix := true
        | _ -> ());
        if k < 0 then infeasible_fix := true;
        s.lb.(v) <- kf;
        s.ub.(v) <- Some kf)
      (Frozen.Delta.bindings delta);
    if !infeasible_fix then Infeasible
    else if s.snrows = 0 then begin
      (* No rows: every variable sits at its lower bound. *)
      let x = Array.init s.snstruct (fun v -> s.lb.(v)) in
      let objective = ref F.zero in
      for v = 0 to s.snstruct - 1 do
        if F.sign s.scost.(v) <> 0 then objective := F.add !objective (F.mul s.scost.(v) x.(v))
      done;
      Optimal { objective = !objective; solution = x }
    end
    else begin
      (* The previous solve skipped dual updates on its fixed columns;
         their reduced costs cannot be trusted until recomputed from the
         basis. *)
      if s.sdarr_stale then session_refresh_darr s;
      let has_fixed = ref false in
      for j = 0 to s.sncols - 1 do
        let fx = session_fixed s j in
        s.sfixed.(j) <- fx;
        if fx then has_fixed := true
      done;
      s.sdarr_stale <- !has_fixed;
      (* Repair nonbasic positions for dual feasibility under the new
         bounds: fixed columns sit at their (single) bound, otherwise the
         reduced-cost sign picks the bound.  d < 0 with no finite upper can
         only be left over from a previously-fixed column; the all-slack
         reset recovers dual feasibility in that case. *)
      (try
         for j = 0 to s.sncols - 1 do
           if not s.s_in_basis.(j) then
             if s.sfixed.(j) then s.s_at_upper.(j) <- false
             else if F.sign s.sdarr.(j) >= 0 then s.s_at_upper.(j) <- false
             else
               match s.ub.(j) with
               | Some _ -> s.s_at_upper.(j) <- true
               | None -> raise Exit
         done
       with Exit -> session_reset s);
      for j = 0 to s.sncols - 1 do
        s.sskip.(j) <- s.sfixed.(j) || s.s_in_basis.(j)
      done;
      session_compute_xb s;
      match session_run s with
      | `Optimal -> session_extract s
      | `Infeasible when k_etas s.skern = 0 ->
        (* The verdict was reached on a freshly factorised basis — no update
           drift to distrust. *)
        Infeasible
      | `Infeasible ->
        (* Never trust an infeasibility verdict reached on a basis with
           updates on it: accumulated drift in the factors/darr can hide
           every eligible entering column.  Re-derive on a fresh
           factorisation of the *current* basis — exact factors, exactly
           recomputed duals and basics — which removes the drift while
           keeping the warm start (an all-slack restart here would pay a
           full cold solve per infeasible node). *)
        (match session_refactorize s with
        | () ->
          (* The exact duals can flip a nonbasic bound status; repair it
             exactly as the solve entry does, then rebuild the basics the
             repair may have moved. *)
          (try
             for j = 0 to s.sncols - 1 do
               if not s.s_in_basis.(j) then
                 if s.sfixed.(j) then s.s_at_upper.(j) <- false
                 else if F.sign s.sdarr.(j) >= 0 then s.s_at_upper.(j) <- false
                 else
                   match s.ub.(j) with
                   | Some _ -> s.s_at_upper.(j) <- true
                   | None -> raise Exit
             done
           with Exit -> session_reset s);
          for j = 0 to s.sncols - 1 do
            s.sskip.(j) <- s.sfixed.(j) || s.s_in_basis.(j)
          done;
          session_compute_xb s
        | exception Session_singular ->
          (* session_reset already restored the all-slack state. *)
          ());
        (match session_run s with
        | `Infeasible -> Infeasible
        | `Optimal -> session_extract s)
    end

  (* ----- Public sessions: append absorption over the compiled state ----
     A [session] remembers the base frozen program and which appends its
     current [sstate] was compiled for.  Solving under a delta whose
     appends differ re-compiles the state against [Frozen.extend base
     delta]; when the new appends extend the absorbed ones the previous
     optimal basis is re-seeded (old structurals keep their index, old
     slack [i] becomes column [nstruct' + i], new rows enter slack-basic).
     That seed is always dual feasible: appended rows have zero duals
     (their slacks are basic with zero cost), so every old reduced cost is
     unchanged, and appended columns — which by construction of frozen
     rows cannot appear in base rows — price out at their own non-negative
     objective.  Base rows are immutable, which is the invariant making
     this sound. *)

  type session = {
    ses_base : Frozen.t;
    ses_choice : Basis.choice;
    mutable ses_st : sstate;
    mutable ses_abs : Frozen.Delta.t;  (* appends the state was compiled for *)
    mutable ses_fz : Frozen.t;  (* [ses_base] with [ses_abs]'s appends materialised *)
    mutable ses_relaxed : (Frozen.Delta.t * outcome) option;  (* see [session_relax] *)
  }

  let create_session ?(kernel = `Sparse) fz =
    {
      ses_base = fz;
      ses_choice = kernel;
      ses_st = create_state ~kernel fz;
      ses_abs = Frozen.Delta.empty;
      ses_fz = fz;
      ses_relaxed = None;
    }

  (* Lifetime work totals, for per-solve deltas in branch-and-bound and the
     enriched public stats records.  Totals survive append absorption (the
     re-compiled state inherits them), so before/after deltas stay
     monotone. *)
  let session_pivots s = s.ses_st.stotal_pivots
  let session_refactors s = s.ses_st.srefactors

  let session_absorb sess delta =
    let old = sess.ses_st in
    let fz = Frozen.extend sess.ses_base delta in
    let st = create_state ~kernel:sess.ses_choice fz in
    st.stotal_pivots <- old.stotal_pivots;
    st.srefactors <- old.srefactors;
    if old.snrows > 0 && Frozen.Delta.extends ~prefix:sess.ses_abs delta then begin
      (* Warm seed from the previous basis (see the block comment above).
         With no old rows the all-slack start of [create_state] already is
         the seed. *)
      for i = 0 to old.snrows - 1 do
        let jb = old.sbasis.(i) in
        st.sbasis.(i) <- (if jb < old.snstruct then jb else st.snstruct + (jb - old.snstruct))
      done;
      for i = old.snrows to st.snrows - 1 do
        st.sbasis.(i) <- st.snstruct + i
      done;
      Array.fill st.s_in_basis 0 st.sncols false;
      for i = 0 to st.snrows - 1 do
        st.s_in_basis.(st.sbasis.(i)) <- true
      done;
      (* Nonbasic bound statuses are re-derived from the refreshed reduced
         costs at the next solve entry, so none are copied here. *)
      match k_refactor st.skern st.sbasis with
      | () -> st.sdarr_stale <- true
      | exception Basis.Singular -> session_reset st
    end;
    sess.ses_st <- st;
    sess.ses_abs <- delta;
    sess.ses_fz <- fz

  let session_program sess delta =
    if not (Frozen.Delta.same_appends delta sess.ses_abs) then session_absorb sess delta;
    sess.ses_fz

  let session_solve sess delta =
    sess.ses_relaxed <- None;
    ignore (session_program sess delta);
    state_solve sess.ses_st delta

  (* With no solve since the last relaxation under an equal delta, the state
     still sits at that optimum: a re-solve would make no pivot. *)
  let session_relax sess delta =
    match sess.ses_relaxed with
    | Some (d, outcome) when Frozen.Delta.equal d delta -> outcome
    | Some _ | None ->
      let outcome = session_solve sess delta in
      sess.ses_relaxed <- Some (delta, outcome);
      outcome

  let solve_frozen ?(delta = Frozen.Delta.empty) ?kernel fz =
    session_solve (create_session ?kernel fz) delta
end
