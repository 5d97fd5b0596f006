(* Basis-factorisation kernels behind one signature: the reference dense
   inverse and the sparse LU the solver actually runs on.  See basis.mli for
   the contract; both are written against {!Numeric.Field.S} so the
   exact-rational simplex instantiates them unchanged. *)

type stats = { factor_nnz : int; basis_nnz : int; etas : int; eta_nnz : int }
type choice = [ `Dense | `Sparse ]

exception Singular

module type S = sig
  type elt
  type t

  val name : string
  val create : nrows:int -> col:(int -> (int * elt) list) -> t
  val refactor : t -> int array -> unit
  val ftran : t -> (int * elt) list -> elt array
  val ftran_dense : t -> elt array -> elt array

  val ftran_pattern : t -> int array
  val ftran_pattern_len : t -> int
  (** A superset of the nonzero positions of the most recent {!ftran}
      result, without duplicates, valid until the next solve or refactor
      call on the kernel.  [ftran_pattern_len] is negative when no pattern
      was tracked (the dense kernel, or a dense right-hand side) — callers
      must then treat the whole result as potentially nonzero.  Only the
      first [ftran_pattern_len] entries of [ftran_pattern] are
      meaningful. *)

  val btran : t -> elt array -> elt array
  val btran_unit : t -> int -> elt array
  val update : t -> r:int -> wcol:elt array -> unit
  val should_refactor : t -> bool
  val etas : t -> int
  val stats : t -> stats
end

(* ----- Reference kernel: explicit dense inverse ------------------------ *)

module Dense (F : Numeric.Field.S) : S with type elt = F.t = struct
  type elt = F.t

  type t = {
    nrows : int;
    col : int -> (int * elt) list;
    binv : elt array array;  (* nrows x nrows *)
    mutable netas : int;
    mutable basis_nnz : int;
  }

  let name = "dense"

  let create ~nrows ~col =
    {
      nrows;
      col;
      binv = Array.init nrows (fun _ -> Array.make nrows F.zero);
      netas = 0;
      basis_nnz = 0;
    }

  (* Gauss-Jordan with partial pivoting.  Row swaps are pure
     left-multiplications: applied to both [mat] and [inv] they leave
     inv = mat_original^-1 at the end. *)
  let refactor t basis =
    let n = t.nrows in
    let mat = Array.make_matrix n n F.zero in
    let nnz = ref 0 in
    for r = 0 to n - 1 do
      List.iter
        (fun (i, c) ->
          mat.(i).(r) <- c;
          incr nnz)
        (t.col basis.(r))
    done;
    t.basis_nnz <- !nnz;
    let inv = Array.init n (fun i -> Array.init n (fun j -> if i = j then F.one else F.zero)) in
    for piv = 0 to n - 1 do
      let best = ref piv in
      for r = piv + 1 to n - 1 do
        if F.compare (F.abs mat.(r).(piv)) (F.abs mat.(!best).(piv)) > 0 then best := r
      done;
      if F.sign mat.(!best).(piv) = 0 then raise Singular;
      if !best <> piv then begin
        let tmp = mat.(piv) in
        mat.(piv) <- mat.(!best);
        mat.(!best) <- tmp;
        let tmp = inv.(piv) in
        inv.(piv) <- inv.(!best);
        inv.(!best) <- tmp
      end;
      let d = mat.(piv).(piv) in
      F.div_inplace mat.(piv) d;
      F.div_inplace inv.(piv) d;
      for r = 0 to n - 1 do
        if r <> piv then begin
          let f = mat.(r).(piv) in
          if F.sign f <> 0 then begin
            F.axpy (F.neg f) mat.(piv) mat.(r);
            F.axpy (F.neg f) inv.(piv) inv.(r)
          end
        end
      done
    done;
    for r = 0 to n - 1 do
      Array.blit inv.(r) 0 t.binv.(r) 0 n
    done;
    t.netas <- 0

  let ftran t entries =
    let n = t.nrows in
    let w = Array.make n F.zero in
    for r = 0 to n - 1 do
      let row = t.binv.(r) in
      let acc = ref F.zero in
      List.iter (fun (i, c) -> acc := F.add !acc (F.mul row.(i) c)) entries;
      w.(r) <- !acc
    done;
    w

  let ftran_dense t rhs =
    Array.init t.nrows (fun r -> F.dot t.binv.(r) rhs)

  let btran t c =
    let n = t.nrows in
    let y = Array.make n F.zero in
    for p = 0 to n - 1 do
      if F.sign c.(p) <> 0 then F.axpy c.(p) t.binv.(p) y
    done;
    y

  let btran_unit t r = Array.copy t.binv.(r)
  let ftran_pattern _ = [||]
  let ftran_pattern_len _ = -1

  (* Eta update of the inverse: row r scaled by the pivot, every other row
     eliminated — O(n^2) per basis change, the cost the sparse kernel
     exists to avoid. *)
  let update t ~r ~wcol =
    let n = t.nrows in
    let piv = wcol.(r) in
    let browr = t.binv.(r) in
    F.div_inplace browr piv;
    for i = 0 to n - 1 do
      if i <> r then begin
        let f = wcol.(i) in
        if F.sign f <> 0 then F.axpy (F.neg f) browr t.binv.(i)
      end
    done;
    t.netas <- t.netas + 1

  (* Rebuild every ~max(300, n) updates: the O(n^3) rebuild then amortises
     to the O(n^2) cost of a single eta update while still bounding
     drift (the historical cadence of the dense solver). *)
  let should_refactor t = t.netas > max 300 t.nrows
  let etas t = t.netas

  let stats t =
    {
      factor_nnz = t.nrows * t.nrows;
      basis_nnz = t.basis_nnz;
      etas = t.netas;
      eta_nnz = t.netas * t.nrows;
    }
end

(* ----- Sparse LU kernel ------------------------------------------------ *)

(* The build also compiles this functor's body on its own, with F the
   float field, as the unit {!Float_lu} (lib/lp/dune, with [open Basis]):
   the body may use this file's types and exception, nothing else of it. *)
module Sparse_lu (F : Numeric.Field.S) : S with type elt = F.t = struct
  type elt = F.t

  (* One product-form eta: the basis column at position [er] was replaced by
     the column whose FTRAN image had pivot [epiv] at [er] and the stored
     off-pivot entries elsewhere. *)
  type eta = { er : int; epiv : elt; ei : int array; ev : elt array }

  type t = {
    nrows : int;
    col : int -> (int * elt) list;
    (* The factorisation processes basis positions in the order [q] (step
       [k] eliminates position [q.(k)]) and pivots step [k] on physical row
       [piv_row.(k)]; [pinv] is the inverse map (physical row -> step, -1
       while unpivoted during a factorisation).  L columns store physical
       row indices, U columns store step indices strictly above their
       diagonal [udiag]. *)
    q : int array;
    piv_row : int array;
    pinv : int array;
    l_i : int array array;
    l_v : elt array array;
    u_i : int array array;
    u_v : elt array array;
    udiag : elt array;
    qinv : int array;  (* basis position -> step *)
    (* Transpose views of the factor, rebuilt with it: for a step [j], the
       steps whose U (resp. L) column carries an entry hitting [j].  They
       drive the scatter-form transposed solves in {!btran_unit}, whose
       touched set is then the reachability of the rhs pattern rather than
       every step. *)
    ut_i : int array array;
    ut_v : elt array array;
    lt_i : int array array;
    lt_v : elt array array;
    mutable factor_nnz : int;
    mutable basis_nnz : int;
    mutable etas_arr : eta array;  (* chronological; first netas live *)
    mutable netas : int;
    mutable eta_nnz : int;
    (* Scratch, reused across calls: [x] dense over physical rows (zero
       between operations), [z] dense over steps, DFS state, and the static
       row counts used as the Markowitz tie-break. *)
    x : elt array;
    z : elt array;
    stamp : int array;
    mutable stamp_val : int;
    stack : int array;
    estack : int array;
    topo : int array;
    starts : int array;
    rowcnt : int array;
    colnnz : int array;
    (* Nonzero pattern of the last FTRAN result (deduplicated positions;
       [wpat_n] < 0 when invalid), maintained so callers and {!update} can
       iterate the touched entries instead of the whole vector. *)
    wpat : int array;
    mutable wpat_n : int;
    wstamp : int array;
    mutable wstamp_val : int;
    (* Result buffers, handed out by {!ftran}/{!ftran_dense} ([wbuf]) and
       {!btran_unit} ([ybuf]) instead of a fresh array per call; [ypat]
       lists the [ypat_n] entries of [ybuf] the last unit row wrote, which
       the next call clears. *)
    wbuf : elt array;
    ybuf : elt array;
    ypat : int array;
    mutable ypat_n : int;
  }

  let name = "sparse-lu"
  let dummy_eta = { er = 0; epiv = F.one; ei = [||]; ev = [||] }

  (* Relative pivot threshold: accept any candidate within a factor 10 of
     the column's largest magnitude, then take the structurally sparsest
     acceptable row.  Exact fields accept tiny pivots too (sign is exact);
     the threshold only biases them towards sparsity. *)
  let threshold = F.of_ratio 1 10

  let create ~nrows ~col =
    let n = nrows in
    {
      nrows = n;
      col;
      q = Array.init n (fun i -> i);
      piv_row = Array.make n 0;
      pinv = Array.make n (-1);
      l_i = Array.make n [||];
      l_v = Array.make n [||];
      u_i = Array.make n [||];
      u_v = Array.make n [||];
      udiag = Array.make n F.one;
      qinv = Array.init n (fun i -> i);
      ut_i = Array.make n [||];
      ut_v = Array.make n [||];
      lt_i = Array.make n [||];
      lt_v = Array.make n [||];
      factor_nnz = 0;
      basis_nnz = 0;
      etas_arr = Array.make 16 dummy_eta;
      netas = 0;
      eta_nnz = 0;
      x = Array.make n F.zero;
      z = Array.make n F.zero;
      stamp = Array.make n 0;
      stamp_val = 0;
      stack = Array.make n 0;
      estack = Array.make n 0;
      topo = Array.make n 0;
      starts = Array.make n 0;
      rowcnt = Array.make n 0;
      colnnz = Array.make n 0;
      wpat = Array.make n 0;
      wpat_n = -1;
      wstamp = Array.make n 0;
      wstamp_val = 0;
      wbuf = Array.make n F.zero;
      ybuf = Array.make n F.zero;
      ypat = Array.make n 0;
      ypat_n = 0;
    }

  (* Symbolic step of Gilbert-Peierls: the nonzero pattern of L^-1 a is the
     set of rows reachable from the pattern of [a] in the column graph of
     the partial factor (an eliminated row propagates to the rows of its L
     column).  Iterative DFS; fills [t.topo] with a postorder and returns
     its length — reverse postorder is a valid elimination order. *)
  let reach t entries =
    t.stamp_val <- t.stamp_val + 1;
    let sv = t.stamp_val in
    let tn = ref 0 in
    let dfs root =
      if t.stamp.(root) <> sv then begin
        t.stamp.(root) <- sv;
        t.stack.(0) <- root;
        t.estack.(0) <- 0;
        let sp = ref 1 in
        while !sp > 0 do
          let node = t.stack.(!sp - 1) in
          let j = t.pinv.(node) in
          let succ = if j >= 0 then t.l_i.(j) else [||] in
          let e = t.estack.(!sp - 1) in
          if e < Array.length succ then begin
            t.estack.(!sp - 1) <- e + 1;
            let nxt = succ.(e) in
            if t.stamp.(nxt) <> sv then begin
              t.stamp.(nxt) <- sv;
              t.stack.(!sp) <- nxt;
              t.estack.(!sp) <- 0;
              incr sp
            end
          end
          else begin
            decr sp;
            t.topo.(!tn) <- node;
            incr tn
          end
        done
      end
    in
    List.iter (fun (i, _) -> dfs i) entries;
    !tn

  (* Same iterative DFS over arbitrary successor lists ([succ.(node)]),
     rooted at [starts.(0 .. ns-1)]: fills [t.topo] with a postorder and
     returns its length.  Reverse postorder visits every node before its
     successors, a valid order for scatter-form triangular solves.  Shares
     the stamp/stack scratch with {!reach} — traversals never
     interleave. *)
  let reach_from t succ starts ns =
    t.stamp_val <- t.stamp_val + 1;
    let sv = t.stamp_val in
    let tn = ref 0 in
    for s0 = 0 to ns - 1 do
      let root = starts.(s0) in
      if t.stamp.(root) <> sv then begin
        t.stamp.(root) <- sv;
        t.stack.(0) <- root;
        t.estack.(0) <- 0;
        let sp = ref 1 in
        while !sp > 0 do
          let node = t.stack.(!sp - 1) in
          let succs = succ.(node) in
          let e = t.estack.(!sp - 1) in
          if e < Array.length succs then begin
            t.estack.(!sp - 1) <- e + 1;
            let nxt = succs.(e) in
            if t.stamp.(nxt) <> sv then begin
              t.stamp.(nxt) <- sv;
              t.stack.(!sp) <- nxt;
              t.estack.(!sp) <- 0;
              incr sp
            end
          end
          else begin
            decr sp;
            t.topo.(!tn) <- node;
            incr tn
          end
        done
      end
    done;
    !tn

  (* Left-looking LU with threshold partial pivoting over statically
     ordered columns (ascending nonzero count — a cheap Markowitz
     approximation that is exact for the slack-heavy bases warm sessions
     live in). *)
  let refactor t basis =
    let n = t.nrows in
    t.netas <- 0;
    t.eta_nnz <- 0;
    t.factor_nnz <- 0;
    t.wpat_n <- -1;
    Array.fill t.rowcnt 0 n 0;
    let bnnz = ref 0 in
    for p = 0 to n - 1 do
      let cnt = ref 0 in
      List.iter
        (fun (i, _) ->
          incr cnt;
          t.rowcnt.(i) <- t.rowcnt.(i) + 1)
        (t.col basis.(p));
      t.colnnz.(p) <- !cnt;
      bnnz := !bnnz + !cnt
    done;
    t.basis_nnz <- !bnnz;
    for p = 0 to n - 1 do
      t.q.(p) <- p
    done;
    Array.sort
      (fun a b ->
        let c = compare t.colnnz.(a) t.colnnz.(b) in
        if c <> 0 then c else compare a b)
      t.q;
    Array.fill t.pinv 0 n (-1);
    for k = 0 to n - 1 do
      let entries = t.col basis.(t.q.(k)) in
      List.iter (fun (i, c) -> t.x.(i) <- F.add t.x.(i) c) entries;
      let tn = reach t entries in
      (* Numeric left-looking solve in reverse postorder. *)
      for idx = tn - 1 downto 0 do
        let i = t.topo.(idx) in
        let j = t.pinv.(i) in
        if j >= 0 then begin
          let xi = t.x.(i) in
          if F.sign xi <> 0 then begin
            let li = t.l_i.(j) and lv = t.l_v.(j) in
            for e = 0 to Array.length li - 1 do
              let r = li.(e) in
              t.x.(r) <- F.sub t.x.(r) (F.mul lv.(e) xi)
            done
          end
        end
      done;
      (* Threshold pivot among the unpivoted reached rows. *)
      let maxabs = ref F.zero in
      for idx = 0 to tn - 1 do
        let i = t.topo.(idx) in
        if t.pinv.(i) < 0 then begin
          let a = F.abs t.x.(i) in
          if F.compare a !maxabs > 0 then maxabs := a
        end
      done;
      if F.sign !maxabs = 0 then begin
        for idx = 0 to tn - 1 do
          t.x.(t.topo.(idx)) <- F.zero
        done;
        raise Singular
      end;
      let cut = F.mul threshold !maxabs in
      let best = ref (-1) in
      for idx = 0 to tn - 1 do
        let i = t.topo.(idx) in
        if
          t.pinv.(i) < 0
          && F.sign t.x.(i) <> 0
          && F.compare (F.abs t.x.(i)) cut >= 0
        then
          if !best < 0 then best := i
          else if
            t.rowcnt.(i) < t.rowcnt.(!best)
            || (t.rowcnt.(i) = t.rowcnt.(!best) && i < !best)
          then best := i
      done;
      let p = !best in
      let nl = ref 0 and nu = ref 0 in
      for idx = 0 to tn - 1 do
        let i = t.topo.(idx) in
        if F.sign t.x.(i) <> 0 then
          if t.pinv.(i) >= 0 then incr nu else if i <> p then incr nl
      done;
      let li = Array.make !nl 0 and lv = Array.make !nl F.zero in
      let ui = Array.make !nu 0 and uv = Array.make !nu F.zero in
      let xl = ref 0 and xu = ref 0 in
      let xp = t.x.(p) in
      for idx = 0 to tn - 1 do
        let i = t.topo.(idx) in
        let xi = t.x.(i) in
        if F.sign xi <> 0 then
          if t.pinv.(i) >= 0 then begin
            ui.(!xu) <- t.pinv.(i);
            uv.(!xu) <- xi;
            incr xu
          end
          else if i <> p then begin
            li.(!xl) <- i;
            lv.(!xl) <- F.div xi xp;
            incr xl
          end;
        t.x.(i) <- F.zero
      done;
      t.l_i.(k) <- li;
      t.l_v.(k) <- lv;
      t.u_i.(k) <- ui;
      t.u_v.(k) <- uv;
      t.udiag.(k) <- xp;
      t.piv_row.(k) <- p;
      t.pinv.(p) <- k;
      t.factor_nnz <- t.factor_nnz + !nl + !nu + 1
    done;
    for k = 0 to n - 1 do
      t.qinv.(t.q.(k)) <- k
    done;
    (* Transpose adjacency of the finished factor, in step space ([rowcnt]
       doubles as the fill cursor — it is recomputed at the next
       refactorisation anyway).  L entries are physical rows; their step is
       total only now, which is why the transposes build after the loop. *)
    Array.fill t.rowcnt 0 n 0;
    for k = 0 to n - 1 do
      let ui = t.u_i.(k) in
      for e = 0 to Array.length ui - 1 do
        t.rowcnt.(ui.(e)) <- t.rowcnt.(ui.(e)) + 1
      done
    done;
    for j = 0 to n - 1 do
      t.ut_i.(j) <- Array.make t.rowcnt.(j) 0;
      t.ut_v.(j) <- Array.make t.rowcnt.(j) F.zero;
      t.rowcnt.(j) <- 0
    done;
    for k = 0 to n - 1 do
      let ui = t.u_i.(k) and uv = t.u_v.(k) in
      for e = 0 to Array.length ui - 1 do
        let j = ui.(e) in
        let c = t.rowcnt.(j) in
        t.ut_i.(j).(c) <- k;
        t.ut_v.(j).(c) <- uv.(e);
        t.rowcnt.(j) <- c + 1
      done
    done;
    Array.fill t.rowcnt 0 n 0;
    for k = 0 to n - 1 do
      let li = t.l_i.(k) in
      for e = 0 to Array.length li - 1 do
        let j = t.pinv.(li.(e)) in
        t.rowcnt.(j) <- t.rowcnt.(j) + 1
      done
    done;
    for j = 0 to n - 1 do
      t.lt_i.(j) <- Array.make t.rowcnt.(j) 0;
      t.lt_v.(j) <- Array.make t.rowcnt.(j) F.zero;
      t.rowcnt.(j) <- 0
    done;
    for k = 0 to n - 1 do
      let li = t.l_i.(k) and lv = t.l_v.(k) in
      for e = 0 to Array.length li - 1 do
        let j = t.pinv.(li.(e)) in
        let c = t.rowcnt.(j) in
        t.lt_i.(j).(c) <- k;
        t.lt_v.(j).(c) <- lv.(e);
        t.rowcnt.(j) <- c + 1
      done
    done

  (* Solve B0 w = x for the loaded scratch [t.x] (physical rows): forward
     through L, permute into step space, back-substitute U, scatter to
     basis positions.  Clears the scratch on the way.  Both triangular
     passes are bounded by the symbolic reachability of the rhs pattern
     ([entries]), so the cost tracks the touched nonzeros, not the
     dimension. *)
  let factor_ftran t entries =
    (* L-solve over the reached physical rows, in reverse postorder (every
       row is final before it scatters into its L column). *)
    let tn = reach t entries in
    for idx = tn - 1 downto 0 do
      let i = t.topo.(idx) in
      let xi = t.x.(i) in
      if F.sign xi <> 0 then begin
        let j = t.pinv.(i) in
        let li = t.l_i.(j) and lv = t.l_v.(j) in
        for e = 0 to Array.length li - 1 do
          let r = li.(e) in
          t.x.(r) <- F.sub t.x.(r) (F.mul lv.(e) xi)
        done
      end
    done;
    (* Permute the touched rows into step space, collecting the U starts. *)
    let ns = ref 0 in
    for idx = 0 to tn - 1 do
      let i = t.topo.(idx) in
      let xi = t.x.(i) in
      t.x.(i) <- F.zero;
      if F.sign xi <> 0 then begin
        t.z.(t.pinv.(i)) <- xi;
        t.starts.(!ns) <- t.pinv.(i);
        incr ns
      end
    done;
    (* U back-substitution over the steps reachable from those starts
       (contributions flow down the column pattern [u_i]). *)
    let tn = reach_from t t.u_i t.starts !ns in
    let w = t.wbuf in
    Array.fill w 0 t.nrows F.zero;
    t.wstamp_val <- t.wstamp_val + 1;
    t.wpat_n <- 0;
    for idx = tn - 1 downto 0 do
      let k = t.topo.(idx) in
      (* Divide before the sign test: a sub-epsilon numerator over a small
         diagonal can still be a significant solution entry. *)
      let v = F.div t.z.(k) t.udiag.(k) in
      t.z.(k) <- F.zero;
      if F.sign v <> 0 then begin
        let ui = t.u_i.(k) and uv = t.u_v.(k) in
        for e = 0 to Array.length ui - 1 do
          let j = ui.(e) in
          t.z.(j) <- F.sub t.z.(j) (F.mul uv.(e) v)
        done
      end;
      let p = t.q.(k) in
      w.(p) <- v;
      t.wstamp.(p) <- t.wstamp_val;
      t.wpat.(t.wpat_n) <- p;
      t.wpat_n <- t.wpat_n + 1
    done;
    w

  (* Dense-rhs variant of the same solve, for right-hand sides with no
     useful pattern (a session's xb recompute): plain loops over every
     step. *)
  let factor_ftran_dense t =
    let n = t.nrows in
    let x = t.x and z = t.z in
    for k = 0 to n - 1 do
      let xk = x.(t.piv_row.(k)) in
      if F.sign xk <> 0 then begin
        let li = t.l_i.(k) and lv = t.l_v.(k) in
        for e = 0 to Array.length li - 1 do
          let r = li.(e) in
          x.(r) <- F.sub x.(r) (F.mul lv.(e) xk)
        done
      end
    done;
    for k = 0 to n - 1 do
      let pr = t.piv_row.(k) in
      z.(k) <- x.(pr);
      x.(pr) <- F.zero
    done;
    (* Every entry of the result buffer is written below. *)
    let w = t.wbuf in
    for k = n - 1 downto 0 do
      let v = F.div z.(k) t.udiag.(k) in
      z.(k) <- F.zero;
      if F.sign v <> 0 then begin
        let ui = t.u_i.(k) and uv = t.u_v.(k) in
        for e = 0 to Array.length ui - 1 do
          let j = ui.(e) in
          z.(j) <- F.sub z.(j) (F.mul uv.(e) v)
        done
      end;
      w.(t.q.(k)) <- v
    done;
    w

  (* FTRAN tail: B = B0 E1 ... Ek, so apply the eta inverses
     chronologically.  E^-1 v pivots on er: v_r' = v_r / epiv, then
     v_i' = v_i - e_i v_r'. *)
  let apply_etas_ftran t w =
    for idx = 0 to t.netas - 1 do
      let e = t.etas_arr.(idx) in
      let ur = F.div w.(e.er) e.epiv in
      w.(e.er) <- ur;
      if F.sign ur <> 0 then
        for k = 0 to Array.length e.ei - 1 do
          let i = e.ei.(k) in
          w.(i) <- F.sub w.(i) (F.mul e.ev.(k) ur);
          (* The eta can introduce nonzeros outside the factor pattern;
             extend it (dedup via the stamp) so it stays a superset. *)
          if t.wpat_n >= 0 && t.wstamp.(i) <> t.wstamp_val then begin
            t.wstamp.(i) <- t.wstamp_val;
            t.wpat.(t.wpat_n) <- i;
            t.wpat_n <- t.wpat_n + 1
          end
        done
    done

  let ftran t entries =
    List.iter (fun (i, c) -> t.x.(i) <- F.add t.x.(i) c) entries;
    let w = factor_ftran t entries in
    apply_etas_ftran t w;
    w

  let ftran_dense t rhs =
    Array.blit rhs 0 t.x 0 t.nrows;
    t.wpat_n <- -1;
    let w = factor_ftran_dense t in
    apply_etas_ftran t w;
    w

  let ftran_pattern t = t.wpat
  let ftran_pattern_len t = t.wpat_n

  let btran t c =
    let n = t.nrows in
    let v = Array.copy c in
    (* Eta transposes, newest first: z^T E = v^T fixes only coordinate er,
       z_r = (v_r - sum_i e_i v_i) / epiv. *)
    for idx = t.netas - 1 downto 0 do
      let e = t.etas_arr.(idx) in
      let acc = ref v.(e.er) in
      for k = 0 to Array.length e.ei - 1 do
        let vi = v.(e.ei.(k)) in
        if F.sign vi <> 0 then acc := F.sub !acc (F.mul e.ev.(k) vi)
      done;
      v.(e.er) <- F.div !acc e.epiv
    done;
    (* Then y^T L U = z^T in step space: forward through U^T, backward
       through L^T into physical rows. *)
    let z = t.z in
    for k = 0 to n - 1 do
      z.(k) <- v.(t.q.(k))
    done;
    for k = 0 to n - 1 do
      let ui = t.u_i.(k) and uv = t.u_v.(k) in
      let acc = ref z.(k) in
      for e = 0 to Array.length ui - 1 do
        let zj = z.(ui.(e)) in
        if F.sign zj <> 0 then acc := F.sub !acc (F.mul uv.(e) zj)
      done;
      z.(k) <- F.div !acc t.udiag.(k)
    done;
    let y = Array.make n F.zero in
    for k = n - 1 downto 0 do
      let li = t.l_i.(k) and lv = t.l_v.(k) in
      let acc = ref z.(k) in
      for e = 0 to Array.length li - 1 do
        let yi = y.(li.(e)) in
        if F.sign yi <> 0 then acc := F.sub !acc (F.mul lv.(e) yi)
      done;
      z.(k) <- F.zero;
      y.(t.piv_row.(k)) <- !acc
    done;
    y

  (* Unit-row BTRAN, the dual pivot's hot call: the eta transposes touch
     only their own pivot coordinates, so the nonzero pattern entering the
     factor stays tiny and both transposed triangular solves run
     scatter-form over the reachability of that pattern (via the [ut]/[lt]
     transpose views) instead of every step. *)
  let btran_unit t r =
    let v = t.x in
    v.(r) <- F.one;
    for idx = t.netas - 1 downto 0 do
      let e = t.etas_arr.(idx) in
      let acc = ref v.(e.er) in
      for k = 0 to Array.length e.ei - 1 do
        let vi = v.(e.ei.(k)) in
        if F.sign vi <> 0 then acc := F.sub !acc (F.mul e.ev.(k) vi)
      done;
      v.(e.er) <- F.div !acc e.epiv
    done;
    (* The nonzero positions are confined to [r] and the eta pivot rows;
       permute them into step space (clearing the scratch) as U starts. *)
    t.stamp_val <- t.stamp_val + 1;
    let sv = t.stamp_val in
    let ns = ref 0 in
    let add p =
      if t.stamp.(p) <> sv then begin
        t.stamp.(p) <- sv;
        let vp = v.(p) in
        v.(p) <- F.zero;
        if F.sign vp <> 0 then begin
          let k = t.qinv.(p) in
          t.z.(k) <- vp;
          t.starts.(!ns) <- k;
          incr ns
        end
      end
    in
    add r;
    for idx = 0 to t.netas - 1 do
      add t.etas_arr.(idx).er
    done;
    (* U^T solve: z_k = (v_k - sum over the U^T row) / udiag_k; a finalized
       step scatters into the steps listed by its [ut] row. *)
    let tn = reach_from t t.ut_i t.starts !ns in
    let nl = ref 0 in
    for idx = tn - 1 downto 0 do
      let j = t.topo.(idx) in
      let zj = F.div t.z.(j) t.udiag.(j) in
      if F.sign zj <> 0 then begin
        let ti = t.ut_i.(j) and tv = t.ut_v.(j) in
        for e = 0 to Array.length ti - 1 do
          let k = ti.(e) in
          t.z.(k) <- F.sub t.z.(k) (F.mul tv.(e) zj)
        done;
        t.z.(j) <- zj;
        t.starts.(!nl) <- j;
        incr nl
      end
      else t.z.(j) <- F.zero
    done;
    (* L^T solve, same shape without the division; results land on the
       step's pivot row. *)
    let tn = reach_from t t.lt_i t.starts !nl in
    let y = t.ybuf in
    for idx = 0 to t.ypat_n - 1 do
      y.(t.ypat.(idx)) <- F.zero
    done;
    t.ypat_n <- 0;
    for idx = tn - 1 downto 0 do
      let j = t.topo.(idx) in
      let yj = t.z.(j) in
      t.z.(j) <- F.zero;
      if F.sign yj <> 0 then begin
        let ti = t.lt_i.(j) and tv = t.lt_v.(j) in
        for e = 0 to Array.length ti - 1 do
          let k = ti.(e) in
          t.z.(k) <- F.sub t.z.(k) (F.mul tv.(e) yj)
        done;
        y.(t.piv_row.(j)) <- yj;
        t.ypat.(t.ypat_n) <- t.piv_row.(j);
        t.ypat_n <- t.ypat_n + 1
      end
    done;
    y

  (* [wcol] is the FTRAN image of the entering column — the pattern of the
     kernel's own last FTRAN covers its nonzeros, so the eta extraction
     walks the pattern when one is live and the whole vector otherwise. *)
  let update t ~r ~wcol =
    let n = t.nrows in
    let cnt = ref 0 in
    if t.wpat_n >= 0 then
      for idx = 0 to t.wpat_n - 1 do
        let i = t.wpat.(idx) in
        if i <> r && F.sign wcol.(i) <> 0 then incr cnt
      done
    else
      for i = 0 to n - 1 do
        if i <> r && F.sign wcol.(i) <> 0 then incr cnt
      done;
    let ei = Array.make !cnt 0 and ev = Array.make !cnt F.zero in
    let k = ref 0 in
    if t.wpat_n >= 0 then
      for idx = 0 to t.wpat_n - 1 do
        let i = t.wpat.(idx) in
        if i <> r && F.sign wcol.(i) <> 0 then begin
          ei.(!k) <- i;
          ev.(!k) <- wcol.(i);
          incr k
        end
      done
    else
      for i = 0 to n - 1 do
        if i <> r && F.sign wcol.(i) <> 0 then begin
          ei.(!k) <- i;
          ev.(!k) <- wcol.(i);
          incr k
        end
      done;
    let e = { er = r; epiv = wcol.(r); ei; ev } in
    if t.netas = Array.length t.etas_arr then begin
      let bigger = Array.make (max 16 (2 * t.netas)) dummy_eta in
      Array.blit t.etas_arr 0 bigger 0 t.netas;
      t.etas_arr <- bigger
    end;
    t.etas_arr.(t.netas) <- e;
    t.netas <- t.netas + 1;
    t.eta_nnz <- t.eta_nnz + !cnt + 1

  (* Refactorise on a short eta leash — the sparse rebuild is cheap
     (O(nnz + fill)) — and whenever the eta file outgrows the factor, so
     solve cost cannot creep back towards dense behaviour. *)
  let should_refactor t =
    t.netas >= 64 || t.eta_nnz > max 1024 (4 * (t.factor_nnz + t.nrows))

  let etas t = t.netas

  let stats t =
    {
      factor_nnz = t.factor_nnz;
      basis_nnz = t.basis_nnz;
      etas = t.netas;
      eta_nnz = t.eta_nnz;
    }
end
