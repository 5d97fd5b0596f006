(* Recursive-descent parser for the tiny CQ syntax documented in the mli. *)

type state = { input : string; mutable pos : int; syms : Symbol.t; arity : string -> int option }

let error_at st pos msg =
  invalid_arg (Printf.sprintf "Cq_parser: %s at position %d in %S" msg pos st.input)

let error st msg = error_at st st.pos msg

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.input
    && (match st.input.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let ident st =
  skip_ws st;
  let start = st.pos in
  while st.pos < String.length st.input && is_ident_char st.input.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error st "expected an identifier";
  String.sub st.input start (st.pos - start)

let term st =
  skip_ws st;
  match peek st with
  | Some '\'' ->
    st.pos <- st.pos + 1;
    let start = st.pos in
    while st.pos < String.length st.input && st.input.[st.pos] <> '\'' do
      st.pos <- st.pos + 1
    done;
    if st.pos >= String.length st.input then error st "unterminated string constant";
    let s = String.sub st.input start (st.pos - start) in
    st.pos <- st.pos + 1;
    Cq.Const (Symbol.intern st.syms s)
  | Some ('0' .. '9' | '-') ->
    let start = st.pos in
    if st.input.[st.pos] = '-' then st.pos <- st.pos + 1;
    while st.pos < String.length st.input && st.input.[st.pos] >= '0' && st.input.[st.pos] <= '9' do
      st.pos <- st.pos + 1
    done;
    let s = String.sub st.input start (st.pos - start) in
    (try Cq.Const (int_of_string s) with Failure _ -> error st "bad integer constant")
  | Some ('a' .. 'z') -> Cq.Var (ident st)
  | Some ('A' .. 'Z') -> error st "terms must be lowercase variables or constants"
  | _ -> error st "expected a term"

let atom st =
  skip_ws st;
  let start = st.pos in
  (match peek st with
  | Some ('A' .. 'Z') -> ()
  | _ -> error st "expected a relation name (uppercase initial)");
  let rel = ident st in
  let exo =
    skip_ws st;
    match peek st with
    | Some '!' ->
      st.pos <- st.pos + 1;
      true
    | _ -> false
  in
  expect st '(';
  let rec terms acc =
    let t = term st in
    skip_ws st;
    match peek st with
    | Some ',' ->
      st.pos <- st.pos + 1;
      terms (t :: acc)
    | Some ')' ->
      st.pos <- st.pos + 1;
      List.rev (t :: acc)
    | _ -> error st "expected ',' or ')'"
  in
  let args = terms [] in
  (match st.arity rel with
  | Some ar when ar <> List.length args ->
    error_at st start
      (Printf.sprintf "relation %s has arity %d but this atom has arity %d" rel ar
         (List.length args))
  | Some _ | None -> ());
  Cq.atom ~exo rel args

let parse ?symbols ?(arity = fun _ -> None) s =
  let syms = match symbols with Some t -> t | None -> Symbol.create () in
  let st = { input = s; pos = 0; syms; arity } in
  skip_ws st;
  (* Optional "Name :-" head. *)
  let name =
    let save = st.pos in
    match peek st with
    | Some ('A' .. 'Z') -> (
      let id = ident st in
      skip_ws st;
      if st.pos + 1 < String.length s && s.[st.pos] = ':' && s.[st.pos + 1] = '-' then begin
        st.pos <- st.pos + 2;
        Some id
      end
      else begin
        st.pos <- save;
        None
      end)
    | _ -> None
  in
  let rec atoms acc =
    let a = atom st in
    skip_ws st;
    match peek st with
    | Some ',' ->
      st.pos <- st.pos + 1;
      atoms (a :: acc)
    | Some _ -> error st "trailing input after atom"
    | None -> List.rev (a :: acc)
  in
  let atom_list = atoms [] in
  match name with Some n -> Cq.make ~name:n atom_list | None -> Cq.make atom_list

let parse_with db s = parse ~symbols:(Database.symbols db) ~arity:(Database.arity db) s
