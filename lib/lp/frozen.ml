module Delta = struct
  (* Balanced map keyed by variable.  Responsibility deltas carry one
     override per witness indicator — thousands of entries on large shared
     programs — so [fix] must not pay a linear dedup (an association list
     made building such a delta quadratic and every [find] linear). *)
  module M = Map.Make (Int)

  (* name, integer, upper (None = unbounded), objective *)
  type col_spec = string * bool * int option * int
  type row_spec = Model.sense * int * (Model.var * int) list

  (* Appends are kept as reversed cons-lists so that extending a delta is
     O(1) and monotone chains of deltas share tails physically — which is
     what lets [same_appends] and [common_appends] short-circuit on [==] in
     the common warm-session case. *)
  type t = {
    fixes : int M.t;
    rcols : col_spec list;  (* reversed *)
    ncols : int;
    rrows : row_spec list;  (* reversed *)
    nrows : int;
  }

  let empty = { fixes = M.empty; rcols = []; ncols = 0; rrows = []; nrows = 0 }
  let release v d = { d with fixes = M.remove v d.fixes }

  let fix v k d =
    if k < 0 then invalid_arg "Frozen.Delta.fix: negative value";
    { d with fixes = M.add v k d.fixes }

  let fix_zero v d = fix v 0 d
  let force_one v d = fix v 1 d
  let is_empty d = M.is_empty d.fixes && d.ncols = 0 && d.nrows = 0
  let find d v = M.find_opt v d.fixes
  let bindings d = M.bindings d.fixes

  let append_col ?(integer = false) ?upper ~name ~obj d =
    (match upper with
    | Some u when u < 0 -> invalid_arg "Frozen.Delta.append_col: negative upper bound"
    | _ -> ());
    if obj < 0 then invalid_arg "Frozen.Delta.append_col: negative objective";
    { d with rcols = (name, integer, upper, obj) :: d.rcols; ncols = d.ncols + 1 }

  let append_row sense rhs expr d =
    let prev = ref (-1) in
    List.iter
      (fun (v, c) ->
        if v < 0 then invalid_arg "Frozen.Delta.append_row: negative variable";
        if v <= !prev then invalid_arg "Frozen.Delta.append_row: row not in normal form";
        if c = 0 then invalid_arg "Frozen.Delta.append_row: zero coefficient";
        prev := v)
      expr;
    { d with rrows = (sense, rhs, expr) :: d.rrows; nrows = d.nrows + 1 }

  let num_appended_cols d = d.ncols
  let num_appended_rows d = d.nrows
  let has_appends d = d.ncols > 0 || d.nrows > 0
  let appended_cols d = List.rev d.rcols
  let appended_rows d = List.rev d.rrows
  let clear_appends d = { d with rcols = []; ncols = 0; rrows = []; nrows = 0 }

  let same_appends d1 d2 =
    d1.ncols = d2.ncols && d1.nrows = d2.nrows
    && (d1.rcols == d2.rcols || d1.rcols = d2.rcols)
    && (d1.rrows == d2.rrows || d1.rrows = d2.rrows)

  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

  (* The length of the longest common tail of two reversed append lists of
     lengths [n1] and [n2]: their longest common prefix in append order.
     Shared tails stop the walk at the first [==]. *)
  let common_tail l1 n1 l2 n2 =
    let n = min n1 n2 in
    let rec go a b n =
      if a == b then n
      else
        match (a, b) with
        | x :: a', y :: b' ->
          let t = go a' b' (n - 1) in
          if t = n - 1 && x = y then n else t
        | _ -> 0
    in
    go (drop (n1 - n) l1) (drop (n2 - n) l2) n

  let common_appends d1 d2 =
    (common_tail d1.rcols d1.ncols d2.rcols d2.ncols, common_tail d1.rrows d1.nrows d2.rrows d2.nrows)

  (* The first [n] entries of a reversed list, in append order. *)
  let rec rev_take n l acc =
    if n <= 0 then acc else match l with [] -> acc | x :: tl -> rev_take (n - 1) tl (x :: acc)

  let appended_cols_from d k = rev_take (d.ncols - k) d.rcols []
  let appended_rows_from d k = rev_take (d.nrows - k) d.rrows []
end

type t = {
  nvars : int;
  nrows : int;
  nnz : int;
  (* CSR *)
  row_start : int array;  (* nrows + 1 *)
  row_col : int array;
  row_coef : int array;
  sense : Model.sense array;
  rhs : int array;
  (* per-variable *)
  obj : int array;
  upper : int array;  (* -1 encodes "no upper bound" *)
  integer : bool array;
  names : string array;
}

let num_vars t = t.nvars
let num_rows t = t.nrows
let nnz t = t.nnz
let objective t v = t.obj.(v)
let upper t v = if t.upper.(v) < 0 then None else Some t.upper.(v)
let is_integer t v = t.integer.(v)
let var_name t v = t.names.(v)

let integer_vars t =
  let rec go v acc = if v < 0 then acc else go (v - 1) (if t.integer.(v) then v :: acc else acc) in
  go (t.nvars - 1) []

let row_sense t i = t.sense.(i)
let row_rhs t i = t.rhs.(i)
let row_size t i = t.row_start.(i + 1) - t.row_start.(i)

let iter_row t i f =
  for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
    f t.row_col.(k) t.row_coef.(k)
  done

let row_expr t i =
  let acc = ref [] in
  for k = t.row_start.(i + 1) - 1 downto t.row_start.(i) do
    acc := (t.row_col.(k), t.row_coef.(k)) :: !acc
  done;
  !acc

let make ~names ~integer ~upper ~obj ~rows =
  let nvars = Array.length names in
  if Array.length integer <> nvars || Array.length upper <> nvars || Array.length obj <> nvars
  then invalid_arg "Frozen.make: per-variable array length mismatch";
  if Array.exists (fun c -> c < 0) obj then invalid_arg "Frozen.make: negative objective";
  let nrows = Array.length rows in
  let nnz = Array.fold_left (fun acc (_, _, expr) -> acc + List.length expr) 0 rows in
  let t =
    {
      nvars;
      nrows;
      nnz;
      row_start = Array.make (nrows + 1) 0;
      row_col = Array.make nnz 0;
      row_coef = Array.make nnz 0;
      sense = Array.make nrows Model.Geq;
      rhs = Array.make nrows 0;
      obj = Array.copy obj;
      upper =
        Array.map
          (function
            | Some u when u >= 0 -> u
            | Some _ -> invalid_arg "Frozen.make: negative upper bound"
            | None -> -1)
          upper;
      integer = Array.copy integer;
      names = Array.copy names;
    }
  in
  let k = ref 0 in
  Array.iteri
    (fun i (sense, rhs, expr) ->
      t.sense.(i) <- sense;
      t.rhs.(i) <- rhs;
      t.row_start.(i) <- !k;
      let prev = ref (-1) in
      List.iter
        (fun (v, c) ->
          if v < 0 || v >= nvars then invalid_arg "Frozen.make: variable out of range";
          if v <= !prev then invalid_arg "Frozen.make: row not in normal form";
          if c = 0 then invalid_arg "Frozen.make: zero coefficient";
          prev := v;
          t.row_col.(!k) <- v;
          t.row_coef.(!k) <- c;
          incr k)
        expr)
    rows;
  t.row_start.(nrows) <- !k;
  t

let of_model m =
  let n = Model.num_vars m in
  make
    ~names:(Array.init n (Model.var_name m))
    ~integer:(Array.init n (Model.is_integer m))
    ~upper:(Array.init n (Model.upper m))
    ~obj:(Array.init n (Model.objective m))
    ~rows:
      (Array.map
         (fun (c : Model.constr) -> (c.Model.sense, c.Model.rhs, c.Model.expr))
         (Model.constraints m))

let extend t (d : Delta.t) =
  if not (Delta.has_appends d) then t
  else begin
    let acols = Array.of_list (Delta.appended_cols d) in
    let names = Array.append t.names (Array.map (fun (n, _, _, _) -> n) acols) in
    let integer = Array.append t.integer (Array.map (fun (_, i, _, _) -> i) acols) in
    let upper =
      Array.append
        (Array.map (fun u -> if u < 0 then None else Some u) t.upper)
        (Array.map (fun (_, _, u, _) -> u) acols)
    in
    let obj = Array.append t.obj (Array.map (fun (_, _, _, o) -> o) acols) in
    let base_rows = Array.init t.nrows (fun i -> (t.sense.(i), t.rhs.(i), row_expr t i)) in
    let rows = Array.append base_rows (Array.of_list (Delta.appended_rows d)) in
    make ~names ~integer ~upper ~obj ~rows
  end

let check_feasible ?(eps = 1e-6) ?(delta = Delta.empty) t x =
  let t = if Delta.has_appends delta then extend t delta else t in
  let ok = ref true in
  for i = 0 to t.nrows - 1 do
    let lhs = ref 0.0 in
    iter_row t i (fun v c -> lhs := !lhs +. (float_of_int c *. x.(v)));
    let frhs = float_of_int t.rhs.(i) in
    let sat =
      match t.sense.(i) with
      | Model.Geq -> !lhs >= frhs -. eps
      | Model.Leq -> !lhs <= frhs +. eps
      | Model.Eq -> Float.abs (!lhs -. frhs) <= eps
    in
    if not sat then ok := false
  done;
  List.iter
    (fun (v, k) -> if Float.abs (x.(v) -. float_of_int k) > eps then ok := false)
    (Delta.bindings delta);
  for v = 0 to t.nvars - 1 do
    if x.(v) < -.eps then ok := false;
    if t.upper.(v) >= 0 && x.(v) > float_of_int t.upper.(v) +. eps then ok := false
  done;
  !ok
