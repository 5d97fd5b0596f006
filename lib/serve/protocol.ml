(* Wire protocol of `resil serve`: line-oriented JSON.  One request object
   per line in, one response object per line out.  This module is pure
   decode/encode — no solver state — so the parsing contract is testable
   without a server. *)

type question =
  | Resilience
  | Responsibility of string  (* tuple in text format, e.g. "S(1,1)" *)
  | Rank
  | Enumerate of string option  (* None: resilience family; Some t: t's family *)

type ask = {
  query : string;
  bag : bool;
  exact : bool;
  deadline_ms : int option;
  jobs : int;
  limit : int option;  (* enumerate only: truncate the reported family *)
  question : question;
}

type request =
  | Ping
  | Load of string  (* whole instance in the text format of Database_io *)
  | Insert of string  (* one tuple line *)
  | Delete of string
  | Ask of ask
  | Stats
  | Metrics of [ `Json | `Prometheus ]  (* metrics-plane snapshot exposition *)
  | Shutdown
  | Batch of envelope list

and envelope = { id : Json.t; req : request }

(* Stable error codes — part of the wire contract, locked by a golden test. *)
type error_code =
  | Malformed
  | Too_large
  | Unknown_op
  | Bad_request
  | Bad_query
  | Not_found
  | Timeout
  | Shutting_down

let error_code_name = function
  | Malformed -> "malformed"
  | Too_large -> "too_large"
  | Unknown_op -> "unknown_op"
  | Bad_request -> "bad_request"
  | Bad_query -> "bad_query"
  | Not_found -> "not_found"
  | Timeout -> "timeout"
  | Shutting_down -> "shutting_down"

(* --- decoding ------------------------------------------------------------- *)

let str_field j name =
  match Option.bind (Json.member name j) Json.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string %S field" name)

let rec decode depth j =
  let ( let* ) = Result.bind in
  match Option.bind (Json.member "op" j) Json.to_string_opt with
  | None -> Error "missing or non-string \"op\" field"
  | Some op -> (
    match op with
    | "ping" -> Ok Ping
    | "stats" -> Ok Stats
    | "metrics" -> (
      match Json.member "format" j with
      | None -> Ok (Metrics `Json)
      | Some v -> (
        match Json.to_string_opt v with
        | Some "json" -> Ok (Metrics `Json)
        | Some "prometheus" -> Ok (Metrics `Prometheus)
        | Some f -> Error (Printf.sprintf "unknown metrics format %S" f)
        | None -> Error "non-string \"format\" field"))
    | "shutdown" -> Ok Shutdown
    | "load" ->
      let* data = str_field j "data" in
      Ok (Load data)
    | "insert" ->
      let* tuple = str_field j "tuple" in
      Ok (Insert tuple)
    | "delete" ->
      let* tuple = str_field j "tuple" in
      Ok (Delete tuple)
    | "resilience" | "responsibility" | "rank" | "enumerate" ->
      let* query = str_field j "query" in
      let bool_field name default =
        match Json.member name j with
        | None -> Ok default
        | Some v -> (
          match Json.to_bool_opt v with
          | Some b -> Ok b
          | None -> Error (Printf.sprintf "non-boolean %S field" name))
      in
      let* bag = bool_field "bag" false in
      let* exact = bool_field "exact" false in
      let* deadline_ms =
        match Json.member "deadline_ms" j with
        | None -> Ok None
        | Some v -> (
          match Json.to_int_opt v with
          | Some ms -> Ok (Some ms)
          | None -> Error "non-integer \"deadline_ms\" field")
      in
      let* jobs =
        match Json.member "jobs" j with
        | None -> Ok 1
        | Some v -> (
          (* Answers do not depend on the fan-out, so a request may not
             ask for more domains than the machine recommends. *)
          match Json.to_int_opt v with
          | Some n when n >= 0 -> Ok (min n (Lp.Pool.default_jobs ()))
          | Some _ -> Error "negative \"jobs\" field"
          | None -> Error "non-integer \"jobs\" field")
      in
      let* limit =
        match Json.member "limit" j with
        | None -> Ok None
        | Some v -> (
          match Json.to_int_opt v with
          | Some n when n >= 0 -> Ok (Some n)
          | Some _ -> Error "negative \"limit\" field"
          | None -> Error "non-integer \"limit\" field")
      in
      let* question =
        match op with
        | "resilience" -> Ok Resilience
        | "rank" -> Ok Rank
        | "enumerate" ->
          (* The tuple is optional: present means the responsibility family
             of that tuple, absent the resilience family. *)
          (match Json.member "tuple" j with
          | None -> Ok (Enumerate None)
          | Some _ ->
            let* tuple = str_field j "tuple" in
            Ok (Enumerate (Some tuple)))
        | _ ->
          let* tuple = str_field j "tuple" in
          Ok (Responsibility tuple)
      in
      Ok (Ask { query; bag; exact; deadline_ms; jobs; limit; question })
    | "batch" ->
      if depth > 0 then Error "nested \"batch\" requests are not allowed"
      else
        let* subs =
          match Option.bind (Json.member "requests" j) Json.to_list_opt with
          | Some l -> Ok l
          | None -> Error "missing or non-array \"requests\" field"
        in
        let* envs =
          List.fold_left
            (fun acc sub ->
              let* acc = acc in
              let* env = decode_envelope (depth + 1) sub in
              Ok (env :: acc))
            (Ok []) subs
        in
        Ok (Batch (List.rev envs))
    | op -> Error (Printf.sprintf "unknown op %S" op))

and decode_envelope depth j =
  match j with
  | Json.Obj _ ->
    let id = Option.value (Json.member "id" j) ~default:Json.Null in
    Result.map (fun req -> { id; req }) (decode depth j)
  | _ -> Error "request is not a JSON object"

type parse_result =
  | Request of envelope
  | Invalid of Json.t * error_code * string
      (** The request id when one was recoverable, else [Null]. *)

let parse_request line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Invalid (Json.Null, Malformed, msg)
  | j -> (
    let id = Option.value (Json.member "id" j) ~default:Json.Null in
    match decode_envelope 0 j with
    | Ok env -> Request env
    | Error msg ->
      let code =
        match Option.bind (Json.member "op" j) Json.to_string_opt with
        | Some op
          when not
                 (List.mem op
                    [
                      "ping"; "stats"; "metrics"; "shutdown"; "load"; "insert"; "delete";
                      "resilience"; "responsibility"; "rank"; "enumerate"; "batch";
                    ]) ->
          Unknown_op
        | _ -> Bad_request
      in
      Invalid (id, code, msg))

(* --- encoding ------------------------------------------------------------- *)

let ok ~id result = Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ]

let error ?data ~id code message =
  let body =
    [ ("code", Json.Str (error_code_name code)); ("message", Json.Str message) ]
    @ match data with Some d -> [ ("data", d) ] | None -> []
  in
  Json.Obj [ ("id", id); ("ok", Json.Bool false); ("error", Json.Obj body) ]
