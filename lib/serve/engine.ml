open Relalg
open Resilience

(* The serve state machine: one mutable database plus a small cache of
   maintained {!Resilience.Session}s borrowing it, driven
   line-by-line by {!handle_line}.  The engine is transport-agnostic and
   never raises, so the whole protocol is testable in-process over a string
   loopback — [bin/resil] only adds the socket/stdio plumbing. *)

type entry = {
  ekey : string * bool * bool;  (* canonical query text, bag, exact *)
  esession : Session.t;
  mutable elast : int;  (* LRU clock *)
}

(* --- metrics-plane instruments -------------------------------------------- *)

(* Registered eagerly for the full (finite) op vocabulary, never lazily per
   request: the exposition's key set is a property of the build, not of
   which ops a run happened to serve, so metrics goldens are stable across
   runs and job counts. *)
let op_names =
  [
    "ping"; "stats"; "metrics"; "shutdown"; "load"; "insert"; "delete";
    "resilience"; "responsibility"; "rank"; "enumerate"; "batch"; "invalid";
  ]

let ask_ops = [ "resilience"; "responsibility"; "rank"; "enumerate" ]

let h_request =
  List.map
    (fun op ->
      ( op,
        Obs.Metrics.histogram ~help:"End-to-end seconds per request line" ~labels:[ ("op", op) ]
          "serve.request.seconds" ))
    op_names

let h_solve =
  List.map
    (fun op ->
      ( op,
        Obs.Metrics.histogram ~help:"Solver seconds per question" ~labels:[ ("op", op) ]
          "serve.solve.seconds" ))
    ask_ops

let h_queue =
  Obs.Metrics.histogram ~help:"Seconds between transport receipt and dispatch"
    "serve.queue.seconds"

let g_sessions = Obs.Metrics.gauge ~help:"Cached incremental sessions" "serve.cache.sessions"
let g_hit_ratio = Obs.Metrics.gauge ~help:"Session cache hit ratio" "serve.cache.hit_ratio"
let g_db_tuples = Obs.Metrics.gauge ~help:"Tuples in the base database" "serve.db.tuples"
let c_requests = Obs.Counter.create ~help:"Request lines handled" "serve.requests.total"

let c_timeouts =
  Obs.Counter.create ~help:"Questions ended by an expired deadline" "serve.timeouts.total"

let op_of_question = function
  | Protocol.Resilience -> "resilience"
  | Protocol.Responsibility _ -> "responsibility"
  | Protocol.Rank -> "rank"
  | Protocol.Enumerate _ -> "enumerate"

let op_name = function
  | Protocol.Ping -> "ping"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics _ -> "metrics"
  | Protocol.Shutdown -> "shutdown"
  | Protocol.Load _ -> "load"
  | Protocol.Insert _ -> "insert"
  | Protocol.Delete _ -> "delete"
  | Protocol.Batch _ -> "batch"
  | Protocol.Ask a -> op_of_question a.Protocol.question

type t = {
  mutable db : Database.t;
  mutable fp : int64 option;  (* [db]'s fingerprint, for display; reset by every write *)
  mutable entries : entry list;
  max_sessions : int;
  max_line : int;
  stop : bool Atomic.t;
      (* The only field a signal handler may touch: admission control reads
         it, [request_stop] sets it, nothing here takes a lock. *)
  mutable tick : int;
  mutable served : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(metrics = true) ?(max_sessions = 8) ?(max_line = 1 lsl 20) () =
  (* A server is long-running: arm the metrics plane and the flight
     recorder at startup and leave them on.  Neither enables span
     buffering (that stays behind [--trace]), so memory is bounded. *)
  if metrics then begin
    Obs.Sink.arm_metrics ();
    Obs.Sink.arm_recorder ()
  end;
  {
    db = Database.create ();
    fp = None;
    entries = [];
    max_sessions = max 1 max_sessions;
    max_line;
    stop = Atomic.make false;
    tick = 0;
    served = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
  }

let request_stop t = Atomic.set t.stop true
let stopping t = Atomic.get t.stop
let max_line t = t.max_line

(* --- session cache -------------------------------------------------------- *)

let drop_entry t e =
  t.entries <- List.filter (fun e' -> e' != e) t.entries

(* The fingerprint is shown by [stats] and the recorder, never compared:
   computed at most once per database state. *)
let fingerprint t =
  let fp = match t.fp with Some fp -> fp | None -> Database.fingerprint t.db in
  t.fp <- Some fp;
  fp

let session t ~key q =
  t.tick <- t.tick + 1;
  match List.find_opt (fun e -> e.ekey = key) t.entries with
  | Some e ->
    (* [load] drops every entry, so a cached session borrows [t.db]. *)
    assert (Session.db e.esession == t.db);
    t.hits <- t.hits + 1;
    e.elast <- t.tick;
    e.esession
  | None ->
    t.misses <- t.misses + 1;
    if List.length t.entries >= t.max_sessions then begin
      let lru =
        List.fold_left
          (fun acc e -> match acc with Some a when a.elast <= e.elast -> acc | _ -> Some e)
          None t.entries
      in
      match lru with
      | Some victim ->
        drop_entry t victim;
        t.evictions <- t.evictions + 1
      | None -> ()
    end;
    let _, bag, exact = key in
    let sem = if bag then Problem.Bag else Problem.Set in
    let ses = Session.create ~exact sem q t.db in
    t.entries <- { ekey = key; esession = ses; elast = t.tick } :: t.entries;
    ses

(* --- mutations ------------------------------------------------------------ *)

(* Parse one tuple line into a scratch database sharing the symbol table, so
   constants intern identically but the base is untouched by parsing. *)
let parse_tuple t line =
  let scratch = Database.create ~symbols:(Database.symbols t.db) () in
  match Database_io.parse_line scratch line with
  | Some tid -> Ok (Database.tuple scratch tid)
  | None -> Error "blank tuple line"
  | exception Invalid_argument msg -> Error msg

(* A tuple line resolved to the live tuple it names: [Bad_request] when the
   line does not parse, [Not_found] when no such tuple is live. *)
let resolve_tuple t line =
  match parse_tuple t line with
  | Error msg -> Error (Protocol.Bad_request, msg)
  | Ok info -> (
    match Database.find t.db info.Database.rel info.Database.args with
    | None -> Error (Protocol.Not_found, "tuple not found")
    | Some tid -> Ok tid)

let sessions t = List.map (fun e -> e.esession) t.entries

let do_load t data =
  match Database_io.parse_string data with
  | exception Invalid_argument msg -> Error msg
  | db ->
    t.db <- db;
    t.fp <- None;
    t.invalidations <- t.invalidations + List.length t.entries;
    t.entries <- [];
    Ok (Json.Obj [ ("tuples", Json.Int (Database.num_tuples db)) ])

let do_insert t line =
  match parse_tuple t line with
  | Error msg -> Error msg
  | Ok info -> (
    t.fp <- None;
    match
      Session.insert ~mult:info.Database.mult ~exo:info.Database.exo t.db (sessions t)
        info.Database.rel info.Database.args
    with
    | exception Invalid_argument msg -> Error msg
    | id -> Ok (Json.Obj [ ("tuple_id", Json.Int id) ]))

let do_delete t line =
  match resolve_tuple t line with
  | Error e -> Error e
  | Ok id ->
    t.fp <- None;
    Session.delete t.db (sessions t) id;
    Ok (Json.Obj [ ("tuple_id", Json.Int id) ])

(* --- questions ------------------------------------------------------------ *)

type reply = Result of Json.t | Err of Protocol.error_code * string * Json.t option

let timeout_err incumbent =
  Err
    ( Protocol.Timeout,
      "deadline expired",
      Some
        (Json.Obj
           [
             ( "incumbent",
               match incumbent with Some v -> Json.Int v | None -> Json.Null );
           ]) )

(* An answer outcome as a reply: an exhausted budget is serve's [timeout]
   error with the incumbent, every other outcome the shared answer form. *)
let answer_reply question answer = function
  | Session.Budget_exhausted incumbent -> timeout_err incumbent
  | o -> Result (Answer.outcome question answer o)

(* The full family is enumerated and counted; [limit] only truncates the
   reported sets (canonical order), so a limited reply is a prefix of the
   unlimited one and ["count"] still reports the family size. *)
let enum_reply t question limit =
  answer_reply question (fun (fam : Enumerate.family) ->
      let shown =
        match limit with
        | Some n -> Enumerate.take n fam.Enumerate.sets
        | None -> fam.Enumerate.sets
      in
      Answer.family t.db ~shown fam)

let do_ask t (a : Protocol.ask) =
  match Cq_parser.parse_with t.db a.Protocol.query with
  | exception Invalid_argument msg -> Err (Protocol.Bad_query, msg, None)
  | q -> (
    let time_limit =
      match a.Protocol.deadline_ms with
      | Some ms -> Some (float_of_int ms /. 1000.)
      | None -> None
    in
    match time_limit with
    | Some budget when budget <= 0. -> timeout_err None
    | _ -> (
      let key = (Cq.to_string q, a.Protocol.bag, a.Protocol.exact) in
      let ses = session t ~key q in
      match a.Protocol.question with
      | Protocol.Resilience ->
        answer_reply Answer.Res (Answer.res t.db) (Session.resilience ?time_limit ses)
      | Protocol.Responsibility tuple -> (
        match resolve_tuple t tuple with
        | Error (code, msg) -> Err (code, msg, None)
        | Ok tid ->
          answer_reply Answer.Rsp (Answer.rsp t.db) (Session.responsibility ?time_limit ses tid))
      | Protocol.Enumerate target -> (
        (* Enumeration rides the same maintained session the point questions
           use: the warm engine, witnesses and frozen program are all
           reused, the cut chain is per-request delta state. *)
        match target with
        | None ->
          enum_reply t Answer.Res a.Protocol.limit
            (Session.enumerate_resilience ?time_limit ~jobs:a.Protocol.jobs ses)
        | Some tuple -> (
          match resolve_tuple t tuple with
          | Error (code, msg) -> Err (code, msg, None)
          | Ok tid ->
            enum_reply t Answer.Rsp a.Protocol.limit
              (Session.enumerate_responsibility ?time_limit ~jobs:a.Protocol.jobs ses tid)))
      | Protocol.Rank ->
        let ranked = Session.ranking ?time_limit ~jobs:a.Protocol.jobs ses in
        Result
          (Json.Obj
             [ ("ranking", Json.List (List.map (fun r -> Answer.rank_row t.db r) ranked)) ])))

(* --- ask instrumentation --------------------------------------------------- *)

let cnt_pivots = Obs.Counter.create "simplex.pivots"
let cnt_nodes = Obs.Counter.create "bb.nodes"

(* Retained flight-recorder events (the [last] ones, or all), rendered for
   a [timeout] error's ["data"] and for [--recorder-file].  Every field
   the engine records is a decimal-numeric string (the fingerprint is
   written in unsigned decimal, not hex, for exactly this reason), so all
   values render as JSON numbers and the serve goldens' digit
   normalization keeps the exposition deterministic. *)
let recorder_events ?last () =
  let evs = Obs.Recorder.dump () in
  let skip = match last with Some n -> List.length evs - n | None -> 0 in
  Json.List
    (List.filteri (fun i _ -> i >= skip) evs
    |> List.map (fun (e : Obs.Trace.span) ->
           let field (k, v) =
             match float_of_string_opt v with
             | Some f -> (k, Json.Float f)
             | None -> (k, Json.Str v)
           in
           Json.Obj
             (("t", Json.Float e.Obs.Trace.t0)
             :: ("dom", Json.Int e.Obs.Trace.dom)
             :: ("op", Json.Str e.Obs.Trace.name)
             :: List.map field e.Obs.Trace.args)))

let recorder_json () = Json.to_string (Json.Obj [ ("flight_recorder", recorder_events ()) ])

let attach_recorder data =
  let base =
    match data with
    | Some (Json.Obj fields) -> fields
    | Some d -> [ ("incumbent", d) ]
    | None -> []
  in
  Some (Json.Obj (base @ [ ("flight_recorder", recorder_events ~last:16 ()) ]))

(* Wrap a question with the per-op solve histogram, a flight-recorder
   event, and — on a deadline expiry — the recorder dump attached to the
   error payload.  One atomic load when nothing is armed. *)
let timed_ask t (a : Protocol.ask) =
  if not (Obs.Sink.any ()) then do_ask t a
  else begin
    let op = op_of_question a.Protocol.question in
    let t0 = Obs.Clock.now () in
    let p0 = Obs.Counter.value cnt_pivots and n0 = Obs.Counter.value cnt_nodes in
    let reply = do_ask t a in
    let dt = Obs.Clock.elapsed t0 in
    (match List.assoc_opt op h_solve with
    | Some h -> Obs.Metrics.observe h dt
    | None -> ());
    let timed_out =
      match reply with Err (Protocol.Timeout, _, _) -> true | _ -> false
    in
    if timed_out then Obs.Counter.incr c_timeouts;
    let outcome =
      match reply with
      | Result _ -> "ok"
      | Err (code, _, _) -> Protocol.error_code_name code
    in
    Obs.Recorder.note
      ~fields:
        [
          ("fingerprint", Printf.sprintf "%Lu" (fingerprint t));
          ("solve_ms", Printf.sprintf "%.3f" (1000. *. dt));
          ("pivots", string_of_int (Obs.Counter.value cnt_pivots - p0));
          ("nodes", string_of_int (Obs.Counter.value cnt_nodes - n0));
          ("outcome", outcome);
        ]
      op;
    match reply with
    | Err (Protocol.Timeout, msg, data) when Obs.Sink.recorder_armed () ->
      Err (Protocol.Timeout, msg, attach_recorder data)
    | reply -> reply
  end

let do_metrics fmt =
  match fmt with
  | `Prometheus ->
    Json.Obj
      [
        ("format", Json.Str "prometheus");
        ("text", Json.Str (Obs.Metrics.prometheus ()));
      ]
  | `Json -> Obs.Metrics.json ()

let do_stats t =
  Json.Obj
    [
      ("served", Json.Int t.served);
      ("sessions", Json.Int (List.length t.entries));
      ("hits", Json.Int t.hits);
      ("misses", Json.Int t.misses);
      ("evictions", Json.Int t.evictions);
      ("invalidations", Json.Int t.invalidations);
      ( "db",
        Json.Obj
          [
            ("tuples", Json.Int (Database.num_tuples t.db));
            ("fingerprint", Json.Str (Printf.sprintf "%016Lx" (fingerprint t)));
          ] );
    ]

(* --- dispatch ------------------------------------------------------------- *)

let finish ~id = function
  | Result r -> Protocol.ok ~id r
  | Err (code, msg, data) -> Protocol.error ?data ~id code msg

(* [drain] marks requests admitted as part of a batch: once a batch is
   admitted, every sub-request in the snapshot is served even if a shutdown
   lands mid-batch — the graceful-drain contract. *)
let rec respond t ~drain (env : Protocol.envelope) =
  let id = env.Protocol.id in
  if stopping t && not drain && env.Protocol.req <> Protocol.Shutdown then
    Protocol.error ~id Protocol.Shutting_down "server is draining"
  else
    match env.Protocol.req with
    | Protocol.Ping -> Protocol.ok ~id (Json.Obj [ ("pong", Json.Bool true) ])
    | Protocol.Stats -> Protocol.ok ~id (do_stats t)
    | Protocol.Metrics fmt -> Protocol.ok ~id (do_metrics fmt)
    | Protocol.Shutdown ->
      request_stop t;
      Protocol.ok ~id (Json.Obj [ ("stopping", Json.Bool true) ])
    | Protocol.Load data ->
      finish ~id
        (match do_load t data with
        | Ok r -> Result r
        | Error msg -> Err (Protocol.Bad_request, msg, None))
    | Protocol.Insert line ->
      finish ~id
        (match do_insert t line with
        | Ok r -> Result r
        | Error msg -> Err (Protocol.Bad_request, msg, None))
    | Protocol.Delete line ->
      finish ~id
        (match do_delete t line with
        | Ok r -> Result r
        | Error (code, msg) -> Err (code, msg, None))
    | Protocol.Ask a -> finish ~id (timed_ask t a)
    | Protocol.Batch envs ->
      let replies = List.map (fun e -> respond t ~drain:true e) envs in
      Protocol.ok ~id (Json.Obj [ ("responses", Json.List replies) ])

let handle_line ?received_at t line =
  t.served <- t.served + 1;
  let live = Obs.Sink.recording () in
  let t0 = if live then Obs.Clock.now () else 0. in
  if live then begin
    Obs.Counter.incr c_requests;
    match received_at with
    | Some r -> Obs.Metrics.observe h_queue (Float.max 0. (t0 -. r))
    | None -> ()
  end;
  let op, response =
    if String.length line > t.max_line then
      ( "invalid",
        Protocol.error ~id:Json.Null Protocol.Too_large
          (Printf.sprintf "request line exceeds %d bytes" t.max_line) )
    else
      match Protocol.parse_request line with
      | Protocol.Invalid (id, code, msg) -> ("invalid", Protocol.error ~id code msg)
      | Protocol.Request env ->
        ( op_name env.Protocol.req,
          try respond t ~drain:false env
          with e ->
            Protocol.error ~id:env.Protocol.id Protocol.Bad_request (Printexc.to_string e)
        )
  in
  if live then begin
    (match List.assoc_opt op h_request with
    | Some h -> Obs.Metrics.observe h (Obs.Clock.elapsed t0)
    | None -> ());
    Obs.Metrics.set g_sessions (float_of_int (List.length t.entries));
    let asks = t.hits + t.misses in
    Obs.Metrics.set g_hit_ratio
      (if asks = 0 then 0. else float_of_int t.hits /. float_of_int asks);
    Obs.Metrics.set g_db_tuples (float_of_int (Database.num_tuples t.db))
  end;
  Json.to_string response
