(* Static structure analysis with machine-checkable integrality certificates.
   See struct.mli for the contract.

   Layout of this file:
   - the delta view: the matrix the certificate actually speaks about;
   - feature extraction;
   - structural recognizers (Heller-Tompkins both orientations,
     consecutive-ones block refinement, Ghouila-Houri enumeration), each
     producing a witness in the public encoding;
   - the root-LP probe;
   - [verify], written against the witness encodings only — it shares the
     view construction with the recognizers but none of their search code;
   - [analyze], which chains recognizers cheapest-first and re-checks every
     candidate certificate through [verify] before emitting it, so a
     recognizer bug costs a certificate, never soundness. *)

let c_analyses = Obs.Counter.create "struct.analyses"
let c_integral = Obs.Counter.create "struct.integral"
let c_structural = Obs.Counter.create "struct.integral_structural"
let c_fractional = Obs.Counter.create "struct.fractional"
let c_unknown = Obs.Counter.create "struct.unknown"

type features = {
  rows : int;
  cols : int;
  nnz : int;
  unit_coeffs : bool;
  zero_one : bool;
  neg_entries : int;
  max_col_nnz : int;
  max_row_nnz : int;
  avg_col_nnz : float;
  geq_rows : int;
  leq_rows : int;
  eq_rows : int;
  root_lp : float option;
  root_fractional : int option;
}

type witness =
  | Row_partition of bool array
  | Col_partition of bool array
  | Consecutive_rows of int array
  | Consecutive_cols of int array
  | Ghouila_houri of int array
  | Root_vertex of float array

type verdict = Integral of witness | Fractional of float array | Unknown

type t = { verdict : verdict; features : features }

(* --- The delta view --------------------------------------------------------- *)

(* Fixing a variable folds its column into the right-hand side: the residual
   polytope lives on the free columns, over the rows that still mention one.
   Rows reduced to constants are a feasibility question for the solver, not a
   structure question — an empty or infeasible polytope is trivially integral
   either way.  View rows keep ascending frozen order; Ghouila-Houri
   witnesses index rows by that order. *)
type view = {
  vrows : (int * (Model.var * int) list) array;
      (* (frozen row, entries over free variables), ascending frozen row. *)
}

let view_of ?delta fz =
  let n = Frozen.num_vars fz in
  let free = Array.make n true in
  (match delta with
  | None -> ()
  | Some d -> List.iter (fun (v, _) -> free.(v) <- false) (Frozen.Delta.bindings d));
  let rows = ref [] in
  for i = Frozen.num_rows fz - 1 downto 0 do
    match List.filter (fun (v, _) -> free.(v)) (Frozen.row_expr fz i) with
    | [] -> ()
    | entries -> rows := (i, entries) :: !rows
  done;
  { vrows = Array.of_list !rows }

(* Column supports over the view: for every free variable with an entry, the
   list of (view row index, coefficient), ascending. *)
let view_cols view nvars =
  let cols = Array.make nvars [] in
  Array.iteri
    (fun vi (_, entries) ->
      List.iter (fun (v, c) -> cols.(v) <- (vi, c) :: cols.(v)) entries)
    view.vrows;
  Array.map List.rev cols

let view_unit view = Array.for_all (fun (_, e) -> List.for_all (fun (_, c) -> abs c = 1) e) view.vrows
let view_zero_one view = Array.for_all (fun (_, e) -> List.for_all (fun (_, c) -> c = 1) e) view.vrows

(* --- Features --------------------------------------------------------------- *)

let features_of fz view =
  let nvars = Frozen.num_vars fz in
  let cols = view_cols view nvars in
  let nnz = ref 0 and neg = ref 0 and max_row = ref 0 in
  let geq = ref 0 and leq = ref 0 and eq = ref 0 in
  Array.iter
    (fun (i, entries) ->
      let k = List.length entries in
      nnz := !nnz + k;
      max_row := max !max_row k;
      List.iter (fun (_, c) -> if c < 0 then incr neg) entries;
      match Frozen.row_sense fz i with
      | Model.Geq -> incr geq
      | Model.Leq -> incr leq
      | Model.Eq -> incr eq)
    view.vrows;
  let ncols = ref 0 and max_col = ref 0 in
  Array.iter
    (fun col ->
      match List.length col with
      | 0 -> ()
      | k ->
          incr ncols;
          max_col := max !max_col k)
    cols;
  {
    rows = Array.length view.vrows;
    cols = !ncols;
    nnz = !nnz;
    unit_coeffs = view_unit view;
    zero_one = view_zero_one view;
    neg_entries = !neg;
    max_col_nnz = !max_col;
    max_row_nnz = !max_row;
    avg_col_nnz = (if !ncols = 0 then 0. else float_of_int !nnz /. float_of_int !ncols);
    geq_rows = !geq;
    leq_rows = !leq;
    eq_rows = !eq;
    root_lp = None;
    root_fractional = None;
  }

let features fz = features_of fz (view_of fz)

let feature_fields f =
  let open Obs.Json in
  [
    ("rows", Int f.rows);
    ("cols", Int f.cols);
    ("nnz", Int f.nnz);
    ("unit_coeffs", Bool f.unit_coeffs);
    ("zero_one", Bool f.zero_one);
    ("neg_entries", Int f.neg_entries);
    ("max_col_nnz", Int f.max_col_nnz);
    ("max_row_nnz", Int f.max_row_nnz);
    ("avg_col_nnz", Float f.avg_col_nnz);
    ("geq_rows", Int f.geq_rows);
    ("leq_rows", Int f.leq_rows);
    ("eq_rows", Int f.eq_rows);
  ]

(* --- Heller-Tompkins bipartitions ------------------------------------------- *)

(* 2-colour items under parity constraints: [edges] lists
   (a, b, same_part) over items [0..n-1].  Components not mentioned keep
   colour [false].  Plain BFS; [None] on an odd constraint cycle. *)
let two_colour n edges =
  let adj = Array.make n [] in
  List.iter
    (fun (a, b, same) ->
      adj.(a) <- (b, same) :: adj.(a);
      adj.(b) <- (a, same) :: adj.(b))
    edges;
  let colour = Array.make n (-1) in
  let ok = ref true in
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if !ok && colour.(s) < 0 then begin
      colour.(s) <- 0;
      Queue.add s queue;
      while !ok && not (Queue.is_empty queue) do
        let a = Queue.pop queue in
        List.iter
          (fun (b, same) ->
            let want = if same then colour.(a) else 1 - colour.(a) in
            if colour.(b) < 0 then begin
              colour.(b) <- want;
              Queue.add b queue
            end
            else if colour.(b) <> want then ok := false)
          adj.(a)
      done
    end
  done;
  if !ok then Some (Array.map (fun c -> c = 1) colour) else None

(* Heller-Tompkins: a 0/±1 matrix with at most two nonzeros per column is TU
   iff the rows split into two parts with every same-sign column straddling
   the parts and every opposite-sign column inside one — single-entry
   columns are free.  Covers bipartite incidence (parts = the two vertex
   classes) and network matrices (flip one part's rows to get a digraph
   incidence matrix). *)
let row_partition fz view =
  let nrows = Frozen.num_rows fz in
  let cols = view_cols view (Frozen.num_vars fz) in
  if not (view_unit view) then None
  else if Array.exists (fun col -> List.length col > 2) cols then None
  else begin
    let edges = ref [] in
    Array.iter
      (fun col ->
        match col with
        | [ (r1, c1); (r2, c2) ] -> edges := (r1, r2, c1 * c2 < 0) :: !edges
        | _ -> ())
      cols;
    match two_colour (Array.length view.vrows) !edges with
    | None -> None
    | Some colour ->
        let part = Array.make nrows false in
        Array.iteri (fun vi (i, _) -> part.(i) <- colour.(vi)) view.vrows;
        Some (Row_partition part)
  end

(* The transpose condition: at most two nonzeros per row, columns
   2-coloured. *)
let col_partition fz view =
  let nvars = Frozen.num_vars fz in
  if not (view_unit view) then None
  else if Array.exists (fun (_, e) -> List.length e > 2) view.vrows then None
  else begin
    let edges = ref [] in
    Array.iter
      (fun (_, entries) ->
        match entries with
        | [ (v1, c1); (v2, c2) ] -> edges := (v1, v2, c1 * c2 < 0) :: !edges
        | _ -> ())
      view.vrows;
    match two_colour nvars !edges with
    | None -> None
    | Some part -> Some (Col_partition part)
  end

(* --- Consecutive-ones orderings --------------------------------------------- *)

(* Is every set contiguous under [order] (a permutation of 0..n-1)? *)
let contiguous n order sets =
  let rank = Array.make n (-1) in
  List.iteri (fun pos i -> rank.(i) <- pos) order;
  List.for_all
    (fun s ->
      match s with
      | [] | [ _ ] -> true
      | _ ->
          let lo = List.fold_left (fun a i -> min a rank.(i)) max_int s in
          let hi = List.fold_left (fun a i -> max a rank.(i)) (-1) s in
          hi - lo + 1 = List.length s)
    sets

(* Greedy block partition refinement: start from one block of all items and
   refine by each set, largest first.  A set must touch a contiguous run of
   blocks with the interior fully contained; the endpoints split with their
   inside part toward the run.  A set inside a single block is the one
   genuinely ambiguous placement — [left_bias] decides it, and [analyze]
   tries both.  Incomplete (a PQ-tree would also reorder and reverse
   blocks); every result is re-checked with [contiguous] before use. *)
let c1p_refine ~left_bias n sets =
  let mem = Array.make n false in
  let sets =
    List.sort (fun a b -> compare (List.length b) (List.length a)) sets
    |> List.filter (fun s -> List.length s > 1)
  in
  let step blocks s =
    List.iter (fun i -> mem.(i) <- true) s;
    let touched = List.exists (fun i -> mem.(i)) in
    let parts = List.partition (fun i -> mem.(i)) in
    let rec before acc = function
      | b :: rest when not (touched b) -> before (b :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let prefix, rest = before [] blocks in
    let rec run acc = function
      | b :: rest when touched b -> run (b :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let run, suffix = run [] rest in
    let result =
      if List.exists touched suffix then None
      else
        match run with
        | [] -> None
        | [ b ] ->
            let ins, outs = parts b in
            if outs = [] then Some (prefix @ (b :: suffix))
            else
              let pieces = if left_bias then [ ins; outs ] else [ outs; ins ] in
              Some (prefix @ pieces @ suffix)
        | first :: rest ->
            let rrest = List.rev rest in
            let last = List.hd rrest and middle = List.rev (List.tl rrest) in
            if List.exists (fun b -> snd (parts b) <> []) middle then None
            else
              let fin, fout = parts first and lin, lout = parts last in
              let head = if fout = [] then [ first ] else [ fout; fin ] in
              let tail = if lout = [] then [ last ] else [ lin; lout ] in
              Some (prefix @ head @ middle @ tail @ suffix)
    in
    List.iter (fun i -> mem.(i) <- false) s;
    result
  in
  let rec go blocks = function
    | [] -> Some (List.concat blocks)
    | s :: rest -> ( match step blocks s with None -> None | Some blocks -> go blocks rest)
  in
  go [ List.init n Fun.id ] sets

(* First ordering of 0..n-1 making every set contiguous, among: identity and
   both refinement biases. *)
let c1p_order n sets =
  let candidates =
    List.init n Fun.id
    :: List.filter_map Fun.id [ c1p_refine ~left_bias:false n sets; c1p_refine ~left_bias:true n sets ]
  in
  List.find_opt (fun order -> contiguous n order sets) candidates

(* Interval matrix: 0/1 entries, rows orderable so every column's support is
   contiguous.  The witness is a permutation of all frozen rows (non-view
   rows appended — verify ranks view rows only, so their position is
   immaterial). *)
let consecutive_rows fz view =
  if not (view_zero_one view) then None
  else begin
    let nview = Array.length view.vrows in
    let cols = view_cols view (Frozen.num_vars fz) in
    let sets = Array.to_list cols |> List.filter_map (function [] -> None | col -> Some (List.map fst col)) in
    match c1p_order nview sets with
    | None -> None
    | Some order ->
        let in_view = Array.make (Frozen.num_rows fz) false in
        Array.iter (fun (i, _) -> in_view.(i) <- true) view.vrows;
        let rest = ref [] in
        for i = Frozen.num_rows fz - 1 downto 0 do
          if not in_view.(i) then rest := i :: !rest
        done;
        let perm = List.map (fun vi -> fst view.vrows.(vi)) order @ !rest in
        Some (Consecutive_rows (Array.of_list perm))
  end

(* The transpose: columns orderable so every row's support is contiguous.
   Witness is a permutation of all variables. *)
let consecutive_cols fz view =
  if not (view_zero_one view) then None
  else begin
    let nvars = Frozen.num_vars fz in
    let cols = view_cols view nvars in
    let used = ref [] in
    for v = nvars - 1 downto 0 do
      if cols.(v) <> [] then used := v :: !used
    done;
    let used = Array.of_list !used in
    let compact = Array.make nvars (-1) in
    Array.iteri (fun k v -> compact.(v) <- k) used;
    let sets =
      Array.to_list view.vrows |> List.map (fun (_, entries) -> List.map (fun (v, _) -> compact.(v)) entries)
    in
    match c1p_order (Array.length used) sets with
    | None -> None
    | Some order ->
        let unused = ref [] in
        for v = nvars - 1 downto 0 do
          if cols.(v) = [] then unused := v :: !unused
        done;
        let perm = List.map (fun k -> used.(k)) order @ !unused in
        Some (Consecutive_cols (Array.of_list perm))
  end

(* --- Ghouila-Houri ----------------------------------------------------------- *)

(* Exact characterisation, brute-forced: A is TU iff every non-empty row
   subset admits a ±1 signing with all column sums in {-1,0,1} (singleton
   subsets force 0/±1 entries, so no separate unit check is needed).
   Negating a signing preserves the sums, so the lowest row of each subset
   is pinned positive — 2^(k-1) candidates per k-subset.  Only attempted on
   views of at most [max_rows] rows. *)
let gh_signing_ok sums touched =
  let ok = List.for_all (fun v -> abs sums.(v) <= 1) touched in
  List.iter (fun v -> sums.(v) <- 0) touched;
  ok

let ghouila_houri fz view ~max_rows =
  let m = Array.length view.vrows in
  if m > max_rows || m > 20 then None
  else begin
    let sums = Array.make (Frozen.num_vars fz) 0 in
    let signings = Array.make ((1 lsl m) - 1) 0 in
    let complete = ref true in
    let mask = ref 1 in
    while !complete && !mask <= (1 lsl m) - 1 do
      let rows = List.filter (fun i -> !mask land (1 lsl i) <> 0) (List.init m Fun.id) in
      let first = List.hd rows and rest = List.tl rows in
      let k = List.length rest in
      let found = ref (-1) in
      let p = ref 0 in
      while !found < 0 && !p < 1 lsl k do
        let pos = ref (1 lsl first) in
        List.iteri (fun j r -> if !p land (1 lsl j) <> 0 then pos := !pos lor (1 lsl r)) rest;
        let touched = ref [] in
        List.iter
          (fun r ->
            let s = if !pos land (1 lsl r) <> 0 then 1 else -1 in
            List.iter
              (fun (v, c) ->
                if sums.(v) = 0 then touched := v :: !touched;
                sums.(v) <- sums.(v) + (s * c))
              (snd view.vrows.(r)))
          rows;
        if gh_signing_ok sums !touched then found := !pos;
        incr p
      done;
      if !found < 0 then complete := false else signings.(!mask - 1) <- !found;
      incr mask
    done;
    if !complete then Some (Ghouila_houri signings) else None
  end

(* --- Root-LP probe ----------------------------------------------------------- *)

let fractional_on ~eps x vars =
  List.filter (fun v -> Float.abs (x.(v) -. Float.round x.(v)) > eps) vars

let probe_root_lp ?delta ~eps fz =
  let session = Solvers.Float_bb.create_session fz in
  match Solvers.Float_bb.relax ?delta session with
  | `Optimal (obj, x) -> Some (obj, x, List.length (fractional_on ~eps x (Frozen.integer_vars fz)))
  | `Infeasible | `Unbounded -> None

(* --- Verification ------------------------------------------------------------ *)

let is_permutation n order =
  Array.length order = n
  &&
  let seen = Array.make n false in
  Array.for_all (fun i -> i >= 0 && i < n && not seen.(i) && (seen.(i) <- true; true)) order

(* Ranks of view items within a full-permutation witness: view item [k] gets
   the position of its frozen id among view ids in [order]. *)
let view_ranks order vids =
  let rank = Array.make (Array.length vids) (-1) in
  let pos_of = Hashtbl.create 16 in
  Array.iteri (fun k id -> Hashtbl.replace pos_of id k) vids;
  let next = ref 0 in
  Array.iter
    (fun id ->
      match Hashtbl.find_opt pos_of id with
      | Some k ->
          rank.(k) <- !next;
          incr next
      | None -> ())
    order;
  if Array.exists (fun r -> r < 0) rank then None else Some rank

let ranked_contiguous rank sets =
  List.for_all
    (fun s ->
      match s with
      | [] | [ _ ] -> true
      | _ ->
          let lo = List.fold_left (fun a i -> min a rank.(i)) max_int s in
          let hi = List.fold_left (fun a i -> max a rank.(i)) (-1) s in
          hi - lo + 1 = List.length s)
    sets

let verify_witness fz view w =
  let nrows = Frozen.num_rows fz and nvars = Frozen.num_vars fz in
  let cols () = view_cols view nvars in
  match w with
  | Row_partition part ->
      Array.length part = nrows && view_unit view
      && Array.for_all
           (fun col ->
             match col with
             | [] | [ _ ] -> true
             | [ (r1, c1); (r2, c2) ] ->
                 let p1 = part.(fst view.vrows.(r1)) and p2 = part.(fst view.vrows.(r2)) in
                 if c1 * c2 > 0 then p1 <> p2 else p1 = p2
             | _ -> false)
           (cols ())
  | Col_partition part ->
      Array.length part = nvars && view_unit view
      && Array.for_all
           (fun (_, entries) ->
             match entries with
             | [] | [ _ ] -> true
             | [ (v1, c1); (v2, c2) ] -> if c1 * c2 > 0 then part.(v1) <> part.(v2) else part.(v1) = part.(v2)
             | _ -> false)
           view.vrows
  | Consecutive_rows order -> (
      is_permutation nrows order && view_zero_one view
      &&
      match view_ranks order (Array.map fst view.vrows) with
      | None -> false
      | Some rank ->
          let sets =
            Array.to_list (cols ()) |> List.filter_map (function [] -> None | col -> Some (List.map fst col))
          in
          ranked_contiguous rank sets)
  | Consecutive_cols order -> (
      is_permutation nvars order && view_zero_one view
      &&
      let used = ref [] in
      let cols = cols () in
      for v = nvars - 1 downto 0 do
        if cols.(v) <> [] then used := v :: !used
      done;
      let used = Array.of_list !used in
      match view_ranks order used with
      | None -> false
      | Some rank ->
          let compact = Array.make nvars (-1) in
          Array.iteri (fun k v -> compact.(v) <- k) used;
          let sets =
            Array.to_list view.vrows |> List.map (fun (_, e) -> List.map (fun (v, _) -> compact.(v)) e)
          in
          ranked_contiguous rank sets)
  | Ghouila_houri signings ->
      let m = Array.length view.vrows in
      m <= 20
      && Array.length signings = (1 lsl m) - 1
      &&
      let sums = Array.make nvars 0 in
      let ok = ref true in
      for mask = 1 to (1 lsl m) - 1 do
        if !ok then begin
          let pos = signings.(mask - 1) in
          if pos land lnot mask <> 0 then ok := false
          else begin
            let touched = ref [] in
            for r = 0 to m - 1 do
              if mask land (1 lsl r) <> 0 then
                let s = if pos land (1 lsl r) <> 0 then 1 else -1 in
                List.iter
                  (fun (v, c) ->
                    if sums.(v) = 0 then touched := v :: !touched;
                    sums.(v) <- sums.(v) + (s * c))
                  (snd view.vrows.(r))
            done;
            if not (gh_signing_ok sums !touched) then ok := false
          end
        end
      done;
      !ok
  | Root_vertex _ -> false (* handled by [verify], which knows the delta *)

(* A Ghouila-Houri family indexes the rows of the view it was built on, so
   under a different delta the row count no longer matches.  The base
   (delta-free) view's matrix is a supermatrix of every delta view's, and
   total unimodularity is closed under taking submatrices — so a family
   certifying the base view certifies the delta view too. *)
let verify_gh_with_base ?delta fz view w =
  verify_witness fz view w
  ||
  match (w, delta) with
  | Ghouila_houri signings, Some _ ->
      let base = view_of fz in
      Array.length signings = (1 lsl Array.length base.vrows) - 1 && verify_witness fz base w
  | _ -> false

let verify ?delta ?(eps = 1e-6) fz t =
  match t.verdict with
  | Unknown -> true
  | Fractional x ->
      Array.length x = Frozen.num_vars fz
      && Frozen.check_feasible ~eps ?delta fz x
      && fractional_on ~eps x (Frozen.integer_vars fz) <> []
  | Integral (Root_vertex x) ->
      Array.length x = Frozen.num_vars fz
      && Frozen.check_feasible ~eps ?delta fz x
      && fractional_on ~eps x (Frozen.integer_vars fz) = []
  | Integral w -> verify_gh_with_base ?delta fz (view_of ?delta fz) w

(* --- Analysis ---------------------------------------------------------------- *)

let structural_witness w =
  match w with
  | Row_partition _ | Col_partition _ | Consecutive_rows _ | Consecutive_cols _ | Ghouila_houri _ -> true
  | Root_vertex _ -> false

let analyze ?delta ?(gh_max_rows = 8) ?(probe_root = false) fz =
  Obs.Counter.incr c_analyses;
  let view = view_of ?delta fz in
  let features = features_of fz view in
  let recognizers =
    [ row_partition; col_partition; consecutive_rows; consecutive_cols; ghouila_houri ~max_rows:gh_max_rows ]
  in
  let structural =
    List.fold_left
      (fun acc recognize ->
        match acc with
        | Some _ -> acc
        | None -> (
            match recognize fz view with
            | Some w when verify_witness fz view w -> Some w
            | Some _ | None -> None))
      None recognizers
  in
  let t =
    match structural with
    | Some w -> { verdict = Integral w; features }
    | None when probe_root -> (
        match probe_root_lp ?delta ~eps:1e-6 fz with
        | Some (obj, x, frac) ->
            let features = { features with root_lp = Some obj; root_fractional = Some frac } in
            if frac = 0 then { verdict = Integral (Root_vertex x); features }
            else { verdict = Fractional x; features }
        | None -> { verdict = Unknown; features })
    | None -> { verdict = Unknown; features }
  in
  (* Defensive: never emit a certificate verify would reject. *)
  let t =
    match t.verdict with
    | Unknown -> t
    | _ -> if verify ?delta fz t then t else { t with verdict = Unknown }
  in
  (match t.verdict with
  | Integral w ->
      Obs.Counter.incr c_integral;
      if structural_witness w then Obs.Counter.incr c_structural
  | Fractional _ -> Obs.Counter.incr c_fractional
  | Unknown -> Obs.Counter.incr c_unknown);
  t

let is_integral t = match t.verdict with Integral _ -> true | Fractional _ | Unknown -> false

let structural t = match t.verdict with Integral w -> structural_witness w | Fractional _ | Unknown -> false

let witness_name = function
  | Row_partition _ -> "row-partition"
  | Col_partition _ -> "col-partition"
  | Consecutive_rows _ -> "consecutive-rows"
  | Consecutive_cols _ -> "consecutive-cols"
  | Ghouila_houri _ -> "ghouila-houri"
  | Root_vertex _ -> "root-vertex"

let verdict_name t =
  match t.verdict with Integral _ -> "integral" | Fractional _ -> "fractional" | Unknown -> "unknown"

let describe t =
  match t.verdict with
  | Integral (Root_vertex _) -> "integral (root-LP vertex, this objective only)"
  | Integral w -> Printf.sprintf "integral (%s witness, totally unimodular)" (witness_name w)
  | Fractional _ -> "fractional root-LP vertex"
  | Unknown -> "unknown (no certificate)"
