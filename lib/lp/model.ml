type var = int
type sense = Geq | Leq | Eq
type linexpr = (var * int) list
type constr = { expr : linexpr; sense : sense; rhs : int }

type var_info = { name : string; integer : bool; upper : int option; obj : int }

type t = {
  mutable vars : var_info array;
  mutable nvars : int;
  mutable constrs : constr array;
  mutable nconstrs : int;
}

let create () = { vars = [||]; nvars = 0; constrs = [||]; nconstrs = 0 }

let grow_vars t =
  let cap = Array.length t.vars in
  if t.nvars >= cap then begin
    let fresh = Array.make (max 8 (2 * cap)) { name = ""; integer = false; upper = None; obj = 0 } in
    Array.blit t.vars 0 fresh 0 t.nvars;
    t.vars <- fresh
  end

let grow_constrs t =
  let cap = Array.length t.constrs in
  if t.nconstrs >= cap then begin
    let fresh = Array.make (max 8 (2 * cap)) { expr = []; sense = Geq; rhs = 0 } in
    Array.blit t.constrs 0 fresh 0 t.nconstrs;
    t.constrs <- fresh
  end

let add_var ?name ?(integer = false) ?upper ?(obj = 0) t =
  (match upper with
  | Some u when u < 0 -> invalid_arg "Model.add_var: negative upper bound"
  | _ -> ());
  if obj < 0 then invalid_arg "Model.add_var: negative objective";
  if integer && upper = None then
    invalid_arg "Model.add_var: integer variable requires an upper bound";
  grow_vars t;
  let v = t.nvars in
  let name = match name with Some n -> n | None -> Printf.sprintf "x%d" v in
  t.vars.(t.nvars) <- { name; integer; upper; obj };
  t.nvars <- t.nvars + 1;
  v

let relax_upper t v = t.vars.(v) <- { (t.vars.(v)) with upper = None }

(* Sum duplicate variable occurrences so the simplex sees one coefficient
   per column: sort by variable, then merge adjacent terms, dropping the
   ones that cancel. *)
let normalize_expr expr =
  let rec merge = function
    | (v, c) :: (v', c') :: rest when v = v' -> merge ((v, c + c') :: rest)
    | (_, 0) :: rest -> merge rest
    | term :: rest -> term :: merge rest
    | [] -> []
  in
  merge (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) expr)

let add_constr t expr sense rhs =
  grow_constrs t;
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= t.nvars then invalid_arg "Model.add_constr: unknown variable")
    expr;
  t.constrs.(t.nconstrs) <- { expr = normalize_expr expr; sense; rhs };
  t.nconstrs <- t.nconstrs + 1

let num_vars t = t.nvars
let num_constrs t = t.nconstrs
let constraints t = Array.sub t.constrs 0 t.nconstrs
let objective t v = t.vars.(v).obj
let is_integer t v = t.vars.(v).integer
let upper t v = t.vars.(v).upper
let var_name t v = t.vars.(v).name

let integer_vars t =
  let rec go v acc = if v < 0 then acc else go (v - 1) (if t.vars.(v).integer then v :: acc else acc) in
  go (t.nvars - 1) []

let eval_expr expr x = List.fold_left (fun acc (v, c) -> acc +. (float_of_int c *. x.(v))) 0.0 expr

let check_feasible ?(eps = 1e-6) t x =
  let ok = ref true in
  for i = 0 to t.nconstrs - 1 do
    let { expr; sense; rhs } = t.constrs.(i) in
    let lhs = eval_expr expr x in
    let frhs = float_of_int rhs in
    let sat =
      match sense with
      | Geq -> lhs >= frhs -. eps
      | Leq -> lhs <= frhs +. eps
      | Eq -> Float.abs (lhs -. frhs) <= eps
    in
    if not sat then ok := false
  done;
  for v = 0 to t.nvars - 1 do
    if x.(v) < -.eps then ok := false;
    match t.vars.(v).upper with
    | Some u -> if x.(v) > float_of_int u +. eps then ok := false
    | None -> ()
  done;
  !ok

let pp fmt t =
  let pp_expr fmt expr =
    let first = ref true in
    List.iter
      (fun (v, c) ->
        if c <> 0 then begin
          if !first then begin
            if c < 0 then Format.fprintf fmt "- ";
            first := false
          end
          else Format.fprintf fmt " %s " (if c < 0 then "-" else "+");
          let a = abs c in
          if a = 1 then Format.fprintf fmt "%s" t.vars.(v).name
          else Format.fprintf fmt "%d %s" a t.vars.(v).name
        end)
      expr;
    if !first then Format.fprintf fmt "0"
  in
  Format.fprintf fmt "minimize@.  ";
  let obj = List.init t.nvars (fun v -> (v, t.vars.(v).obj)) in
  pp_expr fmt (List.filter (fun (_, c) -> c <> 0) obj);
  Format.fprintf fmt "@.subject to@.";
  for i = 0 to t.nconstrs - 1 do
    let { expr; sense; rhs } = t.constrs.(i) in
    let s = match sense with Geq -> ">=" | Leq -> "<=" | Eq -> "=" in
    Format.fprintf fmt "  c%d: %a %s %d@." i pp_expr expr s rhs
  done;
  Format.fprintf fmt "bounds@.";
  for v = 0 to t.nvars - 1 do
    match t.vars.(v).upper with
    | Some u -> Format.fprintf fmt "  0 <= %s <= %d@." t.vars.(v).name u
    | None -> ()
  done;
  let ints = integer_vars t in
  if ints <> [] then begin
    Format.fprintf fmt "integer@.  ";
    List.iter (fun v -> Format.fprintf fmt "%s " t.vars.(v).name) ints;
    Format.fprintf fmt "@."
  end

(* CPLEX LP file format: Minimize / Subject To / Bounds / Generals|Binaries /
   End.  Variable names are sanitised to the format's identifier rules. *)
let to_lp_format t =
  let buf = Buffer.create 4096 in
  let sanitize name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> c
        | _ -> '_')
      name
  in
  let vname v = sanitize (var_name t v) in
  let add_expr expr =
    let first = ref true in
    List.iter
      (fun (v, c) ->
        if c <> 0 then begin
          if !first then begin
            if c < 0 then Buffer.add_string buf "- ";
            first := false
          end
          else Buffer.add_string buf (if c < 0 then " - " else " + ");
          let a = abs c in
          if a <> 1 then Buffer.add_string buf (string_of_int a ^ " ");
          Buffer.add_string buf (vname v)
        end)
      expr;
    if !first then Buffer.add_string buf "0"
  in
  Buffer.add_string buf "Minimize\n obj: ";
  add_expr
    (List.init t.nvars (fun v -> (v, t.vars.(v).obj)) |> List.filter (fun (_, c) -> c <> 0));
  Buffer.add_string buf "\nSubject To\n";
  for i = 0 to t.nconstrs - 1 do
    let { expr; sense; rhs } = t.constrs.(i) in
    Buffer.add_string buf (Printf.sprintf " c%d: " i);
    add_expr expr;
    Buffer.add_string buf
      (match sense with Geq -> " >= " | Leq -> " <= " | Eq -> " = ");
    Buffer.add_string buf (string_of_int rhs);
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "Bounds\n";
  for v = 0 to t.nvars - 1 do
    match t.vars.(v).upper with
    | Some u -> Buffer.add_string buf (Printf.sprintf " 0 <= %s <= %d\n" (vname v) u)
    | None -> Buffer.add_string buf (Printf.sprintf " %s >= 0\n" (vname v))
  done;
  let ints = integer_vars t in
  if ints <> [] then begin
    (* All integer variables here are binary; declaring them General with
       their bounds is equivalent and round-trips better. *)
    Buffer.add_string buf "Generals\n";
    List.iter (fun v -> Buffer.add_string buf (" " ^ vname v ^ "\n")) ints
  end;
  Buffer.add_string buf "End\n";
  Buffer.contents buf

let write_lp_file t path =
  let oc = open_out path in
  output_string oc (to_lp_format t);
  close_out oc
