open! Relalg
open Resilience

type entry = {
  oracle : string;
  message : string;
  case : Gen.case;
}

(* ----- printing ------------------------------------------------------------ *)

let header_line key value = Printf.sprintf "# %s: %s" key value

let single_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let db_lines (c : Gen.db_case) =
  header_line "semantics" (Format.asprintf "%a" Problem.pp_semantics c.Gen.sem)
  :: header_line "query" (Cq.to_string c.Gen.q)
  :: List.map (fun info -> Database_io.print_tuple c.Gen.db info.Database.id) (Database.tuples c.Gen.db)

let var_line frozen v =
  Printf.sprintf "# var: %s %s %d %s"
    (if Lp.Frozen.is_integer frozen v then "int" else "cont")
    (match Lp.Frozen.upper frozen v with Some u -> string_of_int u | None -> "-")
    (Lp.Frozen.objective frozen v)
    (Lp.Frozen.var_name frozen v)

let sense_str = function Lp.Model.Geq -> ">=" | Lp.Model.Leq -> "<=" | Lp.Model.Eq -> "="

let sense_of = function
  | ">=" -> Lp.Model.Geq
  | "<=" -> Lp.Model.Leq
  | "=" -> Lp.Model.Eq
  | s -> invalid_arg ("corpus: bad row sense " ^ s)

let row_line frozen i =
  Printf.sprintf "# row: %s %d %s" (sense_str (Lp.Frozen.row_sense frozen i))
    (Lp.Frozen.row_rhs frozen i)
    (String.concat " "
       (List.map (fun (v, c) -> Printf.sprintf "%d:%d" v c) (Lp.Frozen.row_expr frozen i)))

(* Bindings first, then appended columns and rows as [| c ...] / [| r ...]
   segments (same field formats as the var/row header lines), so
   append-carrying deltas round-trip. *)
let delta_line d =
  let bindings =
    List.map (fun (v, k) -> Printf.sprintf " %d=%d" v k) (List.rev (Lp.Frozen.Delta.bindings d))
  in
  let cols =
    List.map
      (fun (name, integer, upper, obj) ->
        Printf.sprintf " | c %s %s %d %s"
          (if integer then "int" else "cont")
          (match upper with Some u -> string_of_int u | None -> "-")
          obj name)
      (Lp.Frozen.Delta.appended_cols d)
  in
  let rows =
    List.map
      (fun (sense, rhs, expr) ->
        Printf.sprintf " | r %s %d%s" (sense_str sense) rhs
          (String.concat "" (List.map (fun (v, c) -> Printf.sprintf " %d:%d" v c) expr)))
      (Lp.Frozen.Delta.appended_rows d)
  in
  Printf.sprintf "# delta:%s" (String.concat "" (bindings @ cols @ rows))

let lp_lines (c : Gen.lp_case) =
  let frozen = c.Gen.frozen in
  List.init (Lp.Frozen.num_vars frozen) (var_line frozen)
  @ List.init (Lp.Frozen.num_rows frozen) (row_line frozen)
  @ List.map delta_line c.Gen.deltas

let to_string e =
  let kind, body =
    match e.case.Gen.shape with
    | Gen.Db c -> ("db", db_lines c)
    | Gen.Lp c -> ("lp", lp_lines c)
  in
  String.concat "\n"
    ([
       "# resil fuzz counterexample";
       header_line "kind" kind;
       header_line "oracle" e.oracle;
       header_line "profile" e.case.Gen.profile;
       header_line "seed" (string_of_int e.case.Gen.seed);
       header_line "message" (single_line e.message);
     ]
    @ body @ [ "" ])

(* ----- parsing ------------------------------------------------------------- *)

let strip s = String.trim s

let header_of line =
  (* "# key: value" -> Some (key, value) *)
  if String.length line < 2 || line.[0] <> '#' then None
  else
    let rest = strip (String.sub line 1 (String.length line - 1)) in
    match String.index_opt rest ':' with
    | None -> None
    | Some i ->
      let key = strip (String.sub rest 0 i) in
      let value = strip (String.sub rest (i + 1) (String.length rest - i - 1)) in
      if key <> "" && String.for_all (fun c -> c <> ' ') key then Some (key, value) else None

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse_var spec =
  (* "<int|cont> <upper|-> <obj> <name...>" *)
  match words spec with
  | integ :: upper :: obj :: name ->
    let integer = match integ with "int" -> true | "cont" -> false | s -> invalid_arg ("corpus: bad var kind " ^ s) in
    let upper = match upper with "-" -> None | s -> Some (int_of_string s) in
    let obj = int_of_string obj in
    if obj < 0 then invalid_arg ("corpus: negative objective in var line " ^ spec);
    (String.concat " " name, integer, upper, obj)
  | _ -> invalid_arg ("corpus: bad var line " ^ spec)

let parse_row spec =
  match words spec with
  | sense :: rhs :: entries ->
    let expr =
      List.map
        (fun e ->
          match String.split_on_char ':' e with
          | [ v; c ] -> (int_of_string v, int_of_string c)
          | _ -> invalid_arg ("corpus: bad row entry " ^ e))
        entries
    in
    (sense_of sense, int_of_string rhs, expr)
  | _ -> invalid_arg ("corpus: bad row line " ^ spec)

let parse_delta spec =
  List.fold_left
    (fun d seg ->
      match words seg with
      | [] -> d
      | "c" :: rest -> (
        let name, integer, upper, obj = parse_var (String.concat " " rest) in
        match upper with
        | Some u -> Lp.Frozen.Delta.append_col ~integer ~upper:u ~name ~obj d
        | None -> Lp.Frozen.Delta.append_col ~integer ~name ~obj d)
      | "r" :: rest ->
        let sense, rhs, expr = parse_row (String.concat " " rest) in
        Lp.Frozen.Delta.append_row sense rhs expr d
      | entries ->
        List.fold_left
          (fun d e ->
            match String.split_on_char '=' e with
            | [ v; k ] -> Lp.Frozen.Delta.fix (int_of_string v) (int_of_string k) d
            | _ -> invalid_arg ("corpus: bad delta entry " ^ e))
          d entries)
    Lp.Frozen.Delta.empty
    (String.split_on_char '|' spec)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let headers = Hashtbl.create 8 in
  let vars = ref [] and rows = ref [] and deltas = ref [] in
  let db = Database.create () in
  List.iter
    (fun line ->
      match header_of line with
      | Some ("var", spec) -> vars := parse_var spec :: !vars
      | Some ("row", spec) -> rows := parse_row spec :: !rows
      | Some ("delta", spec) -> deltas := parse_delta spec :: !deltas
      | Some (key, value) -> if not (Hashtbl.mem headers key) then Hashtbl.add headers key value
      | None -> ignore (Database_io.parse_line db line))
    lines;
  let get key =
    match Hashtbl.find_opt headers key with
    | Some v -> v
    | None -> invalid_arg ("corpus: missing header " ^ key)
  in
  let seed = try int_of_string (get "seed") with _ -> 0 in
  let profile = try get "profile" with _ -> "corpus" in
  let shape =
    match get "kind" with
    | "db" ->
      let sem =
        match get "semantics" with
        | "set" -> Problem.Set
        | "bag" -> Problem.Bag
        | s -> invalid_arg ("corpus: bad semantics " ^ s)
      in
      let q = Cq_parser.parse_with db (get "query") in
      Gen.Db { Gen.sem; q; db }
    | "lp" ->
      let vars = List.rev !vars in
      let frozen =
        Lp.Frozen.make
          ~names:(Array.of_list (List.map (fun (n, _, _, _) -> n) vars))
          ~integer:(Array.of_list (List.map (fun (_, i, _, _) -> i) vars))
          ~upper:(Array.of_list (List.map (fun (_, _, u, _) -> u) vars))
          ~obj:(Array.of_list (List.map (fun (_, _, _, o) -> o) vars))
          ~rows:(Array.of_list (List.rev !rows))
      in
      Gen.Lp { Gen.frozen; deltas = List.rev !deltas }
    | s -> invalid_arg ("corpus: bad kind " ^ s)
  in
  {
    oracle = get "oracle";
    message = (try get "message" with _ -> "");
    case = { Gen.seed; profile; shape };
  }

(* ----- files --------------------------------------------------------------- *)

let file_name e =
  Printf.sprintf "%s-%s-seed%d.case" e.oracle e.case.Gen.profile (abs e.case.Gen.seed)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ~dir e =
  mkdir_p dir;
  let path = Filename.concat dir (file_name e) in
  let oc = open_out path in
  output_string oc (to_string e);
  close_out oc;
  path

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_string text

let load_dir dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load path))

let replay e =
  match Oracle.named e.oracle with
  | None -> Oracle.Fail (Printf.sprintf "unknown oracle %S" e.oracle)
  | Some o ->
    if not (o.Oracle.applies e.case) then Oracle.Pass
    else ( try o.Oracle.check e.case with ex -> Oracle.Fail ("oracle raised " ^ Printexc.to_string ex))
