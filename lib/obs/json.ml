(* The repo's one JSON value type, printer, parser and string escaper: the
   serve wire codec, the run-log, the metrics exposition and the CLI's
   [--json] output all print through [to_string].  Hand-rolled so the
   build adds no dependency; parsing covers all of RFC 8259 except
   non-finite numbers, and the printer writes non-finite floats as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* --- printing ------------------------------------------------------------- *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  add_escaped buf s;
  Buffer.contents buf

let quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e17 then
      (* Below 1e17 "%.17g" writes an integral float without a point or an
         exponent, which would read back as an [Int]. *)
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Str s -> quoted buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        quoted buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* --- parsing -------------------------------------------------------------- *)

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> fail "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail "invalid literal at offset %d" c.pos

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail "invalid \\u escape"

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then fail "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (if c.pos >= String.length c.s then fail "unterminated escape";
       let e = c.s.[c.pos] in
       c.pos <- c.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'r' -> Buffer.add_char buf '\r'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         if c.pos + 4 > String.length c.s then fail "truncated \\u escape";
         let code =
           (hex_digit c.s.[c.pos] lsl 12)
           lor (hex_digit c.s.[c.pos + 1] lsl 8)
           lor (hex_digit c.s.[c.pos + 2] lsl 4)
           lor hex_digit c.s.[c.pos + 3]
         in
         c.pos <- c.pos + 4;
         (match Uchar.of_int code with
         | u -> Buffer.add_utf_8_uchar buf u
         | exception Invalid_argument _ -> Buffer.add_char buf '?')
       | e -> fail "invalid escape '\\%c'" e);
      go ()
    | ch when Char.code ch < 0x20 -> fail "raw control character in string"
    | ch ->
      Buffer.add_char buf ch;
      go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let advance () = c.pos <- c.pos + 1 in
  if peek c = Some '-' then advance ();
  while match peek c with Some ('0' .. '9') -> true | _ -> false do
    advance ()
  done;
  if peek c = Some '.' then begin
    is_float := true;
    advance ();
    while match peek c with Some ('0' .. '9') -> true | _ -> false do
      advance ()
    done
  end;
  (match peek c with
  | Some ('e' | 'E') ->
    is_float := true;
    advance ();
    (match peek c with Some ('+' | '-') -> advance () | _ -> ());
    while match peek c with Some ('0' .. '9') -> true | _ -> false do
      advance ()
    done
  | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f when Float.is_finite f -> Float f
    | _ -> fail "invalid number %S" text
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* Integer literal overflowing the int range: keep it as a float. *)
      match float_of_string_opt text with
      | Some f when Float.is_finite f -> Float f
      | _ -> fail "invalid number %S" text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '[' ->
    expect c '[';
    skip_ws c;
    if peek c = Some ']' then begin
      expect c ']';
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          expect c ',';
          items (v :: acc)
        | Some ']' ->
          expect c ']';
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      items []
    end
  | Some '{' ->
    expect c '{';
    skip_ws c;
    if peek c = Some '}' then begin
      expect c '}';
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          expect c ',';
          members ((k, v) :: acc)
        | Some '}' ->
          expect c '}';
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      members []
    end
  | Some ch -> fail "unexpected character '%c' at offset %d" ch c.pos

let of_string s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing garbage at offset %d" c.pos;
  v

(* --- accessors ------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None
