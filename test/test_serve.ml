(* In-process loopback suite for the serve layer: protocol parsing, the
   session cache, deadlines, mutations and graceful shutdown — everything
   [bin/resil serve] does minus the socket plumbing, so `dune runtest`
   needs no network. *)

module J = Obs.Json
module E = Serve.Engine

let feed engine line = J.of_string (E.handle_line engine line)

let ok_of j =
  match Option.bind (J.member "ok" j) J.to_bool_opt with
  | Some b -> b
  | None -> Alcotest.fail "response without \"ok\""

let id_of j = Option.value (J.member "id" j) ~default:J.Null

let result_of j =
  match J.member "result" j with
  | Some r -> r
  | None -> Alcotest.fail "ok response without \"result\""

let err_code j =
  match Option.bind (Option.bind (J.member "error" j) (J.member "code")) J.to_string_opt with
  | Some c -> c
  | None -> Alcotest.fail "error response without \"error\".\"code\""

let int_field name j =
  match Option.bind (J.member name j) J.to_int_opt with
  | Some n -> n
  | None -> Alcotest.fail (Printf.sprintf "missing int field %S" name)

let check_err name code j =
  Alcotest.(check bool) (name ^ ": ok=false") false (ok_of j);
  Alcotest.(check string) (name ^ ": code") code (err_code j)

(* The running example: a 2-chain with RES* = 2. *)
let data = "R(1, 2)\nR(1, 3)\nS(2, 3)\nS(3, 4)\n"
let query = "Q :- R(x, y), S(y, z)"

let load_req = J.to_string (J.Obj [ ("op", J.Str "load"); ("data", J.Str data) ])

let ask_req ?(fields = []) op =
  J.to_string (J.Obj ([ ("op", J.Str op); ("query", J.Str query) ] @ fields))

let loaded () =
  let e = E.create () in
  Alcotest.(check int) "loaded 4 tuples" 4 (int_field "tuples" (result_of (feed e load_req)));
  e

(* --- protocol parsing ------------------------------------------------------- *)

let test_ping_and_ids () =
  let e = E.create () in
  let r = feed e {|{"id":7,"op":"ping"}|} in
  Alcotest.(check bool) "ok" true (ok_of r);
  Alcotest.(check bool) "id echoed" true (id_of r = J.Int 7);
  let r = feed e {|{"id":"abc","op":"ping"}|} in
  Alcotest.(check bool) "string id echoed" true (id_of r = J.Str "abc");
  let r = feed e {|{"op":"ping"}|} in
  Alcotest.(check bool) "missing id is null" true (id_of r = J.Null)

let test_malformed () =
  let e = E.create () in
  check_err "truncated json" "malformed" (feed e {|{"op": "ping"|});
  check_err "not json at all" "malformed" (feed e "hello there");
  check_err "trailing garbage" "malformed" (feed e {|{"op":"ping"} extra|});
  (* id recovery: a parseable object with a bad body keeps its id *)
  let r = feed e {|{"id":3,"op":"load"}|} in
  check_err "missing field" "bad_request" r;
  Alcotest.(check bool) "id recovered from invalid request" true (id_of r = J.Int 3)

let test_oversized () =
  let e = E.create ~max_line:64 () in
  let big = Printf.sprintf {|{"op":"ping","pad":%S}|} (String.make 100 'x') in
  check_err "oversized line" "too_large" (feed e big);
  (* under the cap still works *)
  Alcotest.(check bool) "small line fine" true (ok_of (feed e {|{"op":"ping"}|}))

let test_unknown_and_bad () =
  let e = E.create () in
  check_err "unknown op" "unknown_op" (feed e {|{"op":"frobnicate"}|});
  check_err "missing op" "bad_request" (feed e {|{"x":1}|});
  check_err "non-object" "bad_request" (feed e "[1,2]");
  check_err "non-string data" "bad_request" (feed e {|{"op":"load","data":5}|});
  check_err "non-bool bag" "bad_request"
    (feed e (ask_req ~fields:[ ("bag", J.Int 1) ] "resilience"));
  check_err "negative jobs" "bad_request"
    (feed e (ask_req ~fields:[ ("jobs", J.Int (-2)) ] "rank"));
  (* The fan-out is clamped at decode; nothing is spawned here. *)
  let decoded_jobs n =
    match Serve.Protocol.parse_request (ask_req ~fields:[ ("jobs", J.Int n) ] "rank") with
    | Serve.Protocol.Request { req = Serve.Protocol.Ask a; _ } -> a.Serve.Protocol.jobs
    | _ -> Alcotest.fail "a jobs field must decode"
  in
  Alcotest.(check int) "jobs clamped to the recommended domain count" (Lp.Pool.default_jobs ())
    (decoded_jobs 1_000_000);
  Alcotest.(check int) "jobs 0 keeps meaning the default" 0 (decoded_jobs 0);
  check_err "nested batch" "bad_request"
    (feed e
       {|{"op":"batch","requests":[{"op":"batch","requests":[]}]}|});
  let e = loaded () in
  check_err "unparseable query" "bad_query" (feed e {|{"op":"resilience","query":"Q :- "}|})

(* --- the cache -------------------------------------------------------------- *)

let res_value j =
  let r = result_of j in
  Alcotest.(check string) "status solved" "solved"
    (Option.get (Option.bind (J.member "status" r) J.to_string_opt));
  int_field "value" r

let stats_of e =
  let j = feed e {|{"op":"stats"}|} in
  result_of j

let test_cache_hit () =
  let e = loaded () in
  Alcotest.(check int) "cold answer" 2 (res_value (feed e (ask_req "resilience")));
  Alcotest.(check int) "warm answer" 2 (res_value (feed e (ask_req "resilience")));
  let s = stats_of e in
  Alcotest.(check int) "one session" 1 (int_field "sessions" s);
  Alcotest.(check int) "one miss" 1 (int_field "misses" s);
  Alcotest.(check int) "one hit" 1 (int_field "hits" s)

let test_cache_evict () =
  let e = E.create ~max_sessions:1 () in
  ignore (feed e load_req);
  ignore (feed e (ask_req "resilience"));
  let other = J.to_string (J.Obj [ ("op", J.Str "resilience"); ("query", J.Str "Q :- R(x, y)") ]) in
  Alcotest.(check bool) "second query answers" true (ok_of (feed e other));
  let s = stats_of e in
  Alcotest.(check int) "capped at one session" 1 (int_field "sessions" s);
  Alcotest.(check int) "one eviction" 1 (int_field "evictions" s)

let test_cache_invalidation () =
  let e = loaded () in
  ignore (feed e (ask_req "resilience"));
  (* reloading moves the base under the cached instance *)
  Alcotest.(check int) "reload" 4 (int_field "tuples" (result_of (feed e load_req)));
  Alcotest.(check int) "answer after reload" 2 (res_value (feed e (ask_req "resilience")));
  let s = stats_of e in
  Alcotest.(check int) "reload invalidated the session" 1 (int_field "invalidations" s);
  Alcotest.(check int) "two misses, no stale hit" 2 (int_field "misses" s)

(* --- deadlines -------------------------------------------------------------- *)

let test_deadline_expiry () =
  let e = loaded () in
  let r = feed e (ask_req ~fields:[ ("deadline_ms", J.Int 0) ] "resilience") in
  check_err "zero deadline" "timeout" r;
  (* structured timeout: the incumbent field is present (null here) *)
  (match Option.bind (J.member "error" r) (J.member "data") with
  | Some d -> Alcotest.(check bool) "incumbent present" true (J.member "incumbent" d <> None)
  | None -> Alcotest.fail "timeout without data");
  (* a generous deadline answers normally *)
  Alcotest.(check int) "generous deadline" 2
    (res_value (feed e (ask_req ~fields:[ ("deadline_ms", J.Int 60_000) ] "resilience")))

(* --- mutations through live sessions ---------------------------------------- *)

let test_insert_delete () =
  let e = loaded () in
  Alcotest.(check int) "before" 2 (res_value (feed e (ask_req "resilience")));
  let r = feed e {|{"op":"insert","tuple":"R(9, 2)"}|} in
  Alcotest.(check bool) "insert ok" true (ok_of r);
  let tid = int_field "tuple_id" (result_of r) in
  Alcotest.(check bool) "fresh id" true (tid >= 4);
  Alcotest.(check int) "after insert" 2 (res_value (feed e (ask_req "resilience")));
  let r = feed e {|{"op":"delete","tuple":"R(9, 2)"}|} in
  Alcotest.(check int) "deleted the same tuple" tid (int_field "tuple_id" (result_of r));
  check_err "delete twice" "not_found" (feed e {|{"op":"delete","tuple":"R(9, 2)"}|});
  Alcotest.(check int) "after delete" 2 (res_value (feed e (ask_req "resilience")));
  (* the cached session survived all three mutations: one miss total *)
  Alcotest.(check int) "one miss across mutations" 1 (int_field "misses" (stats_of e))

(* Two cached queries over the shared relation R, under bag semantics: each
   write must reach both instances exactly once.  A re-insert bumps R(1, 2)'s
   multiplicity (applied twice, the bag weight would read 3, not 2) and
   forces both to rebuild; the delete removes a tuple in both queries'
   witnesses.  After every write each answer must equal a cold solve on a
   shadow database given the same writes. *)
let test_write_reaches_every_query () =
  let open Relalg in
  let e = loaded () in
  let shadow = Database_io.parse_string data in
  let queries = [ query; "Q :- R(x, y)" ] in
  let ask q =
    J.to_string
      (J.Obj [ ("op", J.Str "resilience"); ("query", J.Str q); ("bag", J.Bool true) ])
  in
  let check step =
    List.iter
      (fun q ->
        let want =
          match
            Resilience.Solve.resilience Resilience.Problem.Bag (Cq_parser.parse_with shadow q)
              shadow
          with
          | Resilience.Solve.Solved a -> a.Resilience.Solve.res_value
          | _ -> Alcotest.fail "shadow RES* must be solved"
        in
        Alcotest.(check int) (Printf.sprintf "%s: %s" step q) want (res_value (feed e (ask q))))
      queries;
    let db = Option.get (J.member "db" (stats_of e)) in
    Alcotest.(check int) (step ^ ": tuples") (Database.num_tuples shadow) (int_field "tuples" db)
  in
  check "before";
  Alcotest.(check bool) "re-insert ok" true
    (ok_of (feed e {|{"op":"insert","tuple":"R(1, 2)"}|}));
  ignore (Database.add shadow "R" [| 1; 2 |]);
  check "after re-insert";
  Alcotest.(check bool) "delete ok" true (ok_of (feed e {|{"op":"delete","tuple":"R(1, 2)"}|}));
  Database.remove shadow (Option.get (Database.find shadow "R" [| 1; 2 |]));
  check "after delete";
  let s = stats_of e in
  Alcotest.(check int) "both queries stay cached" 2 (int_field "sessions" s);
  Alcotest.(check int) "one miss per query" 2 (int_field "misses" s)

let test_responsibility_and_rank () =
  let e = loaded () in
  let r = feed e (ask_req ~fields:[ ("tuple", J.Str "S(2, 3)") ] "responsibility") in
  Alcotest.(check bool) "responsibility ok" true (ok_of r);
  Alcotest.(check int) "RSP* of S(2,3)" 1 (int_field "value" (result_of r));
  check_err "responsibility of a ghost" "not_found"
    (feed e (ask_req ~fields:[ ("tuple", J.Str "S(9, 9)") ] "responsibility"));
  let r = feed e (ask_req "rank") in
  match Option.bind (J.member "ranking" (result_of r)) J.to_list_opt with
  | Some rows -> Alcotest.(check bool) "ranking non-empty" true (rows <> [])
  | None -> Alcotest.fail "rank without ranking array"

(* A false query's status object depends on the question alone: resilience
   (also as a family) is 0, responsibility (also as a family) has no
   value. *)
let test_query_false_by_question () =
  let e = loaded () in
  ignore (feed e (ask_req "resilience"));
  List.iter
    (fun t ->
      let req = J.to_string (J.Obj [ ("op", J.Str "delete"); ("tuple", J.Str t) ]) in
      Alcotest.(check bool) ("delete " ^ t) true (ok_of (feed e req)))
    [ "S(2, 3)"; "S(3, 4)" ];
  let tuple = [ ("tuple", J.Str "R(1, 2)") ] in
  List.iter
    (fun (name, req, expected) ->
      Alcotest.(check string) name expected (J.to_string (result_of (feed e req))))
    [
      ("resilience", ask_req "resilience", {|{"status":"query_false","value":0}|});
      ("enumerate", ask_req "enumerate", {|{"status":"query_false","value":0}|});
      ("responsibility", ask_req ~fields:tuple "responsibility", {|{"status":"query_false"}|});
      ("enumerate a tuple", ask_req ~fields:tuple "enumerate", {|{"status":"query_false"}|});
    ]

(* --- the metrics plane -------------------------------------------------------- *)

let test_metrics_op () =
  let e = loaded () in
  ignore (feed e (ask_req "resilience"));
  let r = feed e {|{"op":"metrics"}|} in
  Alcotest.(check bool) "metrics ok" true (ok_of r);
  let res = result_of r in
  Alcotest.(check bool) "counters object" true (J.member "counters" res <> None);
  Alcotest.(check bool) "gauges object" true (J.member "gauges" res <> None);
  let hists =
    match J.member "histograms" res with
    | Some h -> h
    | None -> Alcotest.fail "metrics without histograms"
  in
  (* Per-op series are pre-registered, so both the touched and the
     untouched series are present — the exposition's shape never depends
     on traffic. *)
  let series key =
    match J.member key hists with
    | Some s -> s
    | None -> Alcotest.fail (Printf.sprintf "missing histogram series %S" key)
  in
  let req_res = series "serve.request.seconds{op=resilience}" in
  Alcotest.(check bool) "resilience requests counted" true (int_field "count" req_res >= 1);
  List.iter
    (fun q ->
      Alcotest.(check bool) (q ^ " present") true (J.member q req_res <> None))
    [ "p50"; "p90"; "p99"; "p999" ];
  Alcotest.(check bool) "untouched op series still exposed" true
    (J.member "serve.request.seconds{op=enumerate}" hists <> None);
  ignore (series "serve.solve.seconds{op=resilience}");
  ignore (series "serve.queue.seconds");
  (match J.member "gauges" res with
  | Some g -> Alcotest.(check bool) "cache gauge" true (J.member "serve.cache.sessions" g <> None)
  | None -> ());
  (* Prometheus text rides in a "text" member. *)
  let r = feed e {|{"op":"metrics","format":"prometheus"}|} in
  Alcotest.(check bool) "prometheus ok" true (ok_of r);
  (match Option.bind (J.member "text" (result_of r)) J.to_string_opt with
  | Some text ->
    let contains needle =
      let n = String.length needle and m = String.length text in
      let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "TYPE header" true
      (contains "# TYPE serve_request_seconds histogram");
    Alcotest.(check bool) "le buckets" true (contains "serve_request_seconds_bucket");
    Alcotest.(check bool) "cache gauge exported" true (contains "serve_cache_sessions")
  | None -> Alcotest.fail "prometheus without text");
  check_err "unknown format" "bad_request" (feed e {|{"op":"metrics","format":"xml"}|})

let test_timeout_carries_flight_recorder () =
  let e = loaded () in
  ignore (feed e (ask_req "resilience"));
  let r = feed e (ask_req ~fields:[ ("deadline_ms", J.Int 0) ] "resilience") in
  check_err "forced timeout" "timeout" r;
  match Option.bind (J.member "error" r) (J.member "data") with
  | None -> Alcotest.fail "timeout without data"
  | Some d -> (
    Alcotest.(check bool) "incumbent still present" true (J.member "incumbent" d <> None);
    match Option.bind (J.member "flight_recorder" d) J.to_list_opt with
    | None -> Alcotest.fail "timeout without flight_recorder events"
    | Some evs ->
      Alcotest.(check bool) "has events" true (evs <> []);
      let last = List.nth evs (List.length evs - 1) in
      (match Option.bind (J.member "op" last) J.to_string_opt with
      | Some op -> Alcotest.(check string) "last event is this ask" "resilience" op
      | None -> Alcotest.fail "event without op");
      (match Option.bind (J.member "outcome" last) J.to_string_opt with
      | Some o -> Alcotest.(check string) "outcome timeout" "timeout" o
      | None -> Alcotest.fail "event without outcome");
      (* numeric fields render as JSON numbers (so digit normalization
         keeps serve goldens deterministic), never digit-bearing strings *)
      List.iter
        (fun key ->
          match J.member key last with
          | Some (J.Str _) -> Alcotest.fail (Printf.sprintf "%S is a string" key)
          | Some _ -> ()
          | None -> Alcotest.fail (Printf.sprintf "event without %S" key))
        [ "t"; "dom"; "fingerprint"; "solve_ms"; "pivots"; "nodes" ])

(* --- graceful shutdown ------------------------------------------------------- *)

let test_shutdown_drains_batch () =
  let e = loaded () in
  let sub op = J.Obj [ ("op", J.Str op); ("query", J.Str query) ] in
  let batch =
    J.to_string
      (J.Obj
         [
           ("id", J.Int 1);
           ("op", J.Str "batch");
           ( "requests",
             J.List [ sub "resilience"; J.Obj [ ("op", J.Str "shutdown") ]; sub "resilience" ] );
         ])
  in
  let r = feed e batch in
  Alcotest.(check bool) "batch ok" true (ok_of r);
  (match Option.bind (J.member "responses" (result_of r)) J.to_list_opt with
  | Some replies ->
    Alcotest.(check int) "all three served" 3 (List.length replies);
    (* the ask AFTER the shutdown sub-request was drained, not refused *)
    List.iter (fun reply -> Alcotest.(check bool) "sub ok" true (ok_of reply)) replies
  | None -> Alcotest.fail "batch without responses");
  Alcotest.(check bool) "engine stopping" true (E.stopping e);
  (* new work is refused once draining... *)
  check_err "post-shutdown request" "shutting_down" (feed e (ask_req "resilience"));
  (* ...but shutdown itself stays answerable (idempotent stop) *)
  Alcotest.(check bool) "shutdown idempotent" true (ok_of (feed e {|{"op":"shutdown"}|}))

(* A query atom whose arity differs from the stored relation is refused at
   parse time with a position-annotated message. *)
let test_query_arity_mismatch () =
  let e = loaded () in
  let r = feed e {|{"op":"resilience","query":"Q :- R(x, y), S(y)"}|} in
  check_err "arity mismatch" "bad_query" r;
  match Option.bind (Option.bind (J.member "error" r) (J.member "message")) J.to_string_opt with
  | Some msg ->
    Alcotest.(check string) "message"
      "Cq_parser: relation S has arity 2 but this atom has arity 1 at position 14 in \"Q :- R(x, \
       y), S(y)\""
      msg
  | None -> Alcotest.fail "error without message"

let test_engine_never_raises () =
  let e = loaded () in
  (* wrong arity for an existing relation: Database.add raises inside the
     engine; the catch-all must turn it into an error response *)
  let r = feed e {|{"op":"insert","tuple":"R(1)"}|} in
  Alcotest.(check bool) "arity error is a response" false (ok_of r);
  Alcotest.(check string) "as bad_request" "bad_request" (err_code r)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping and id echo" `Quick test_ping_and_ids;
          Alcotest.test_case "malformed lines" `Quick test_malformed;
          Alcotest.test_case "oversized payload" `Quick test_oversized;
          Alcotest.test_case "unknown and bad requests" `Quick test_unknown_and_bad;
          Alcotest.test_case "query arity mismatch" `Quick test_query_arity_mismatch;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit on repeat ask" `Quick test_cache_hit;
          Alcotest.test_case "LRU eviction" `Quick test_cache_evict;
          Alcotest.test_case "fingerprint invalidation" `Quick test_cache_invalidation;
        ] );
      ( "deadlines", [ Alcotest.test_case "expiry is structured" `Quick test_deadline_expiry ] );
      ( "metrics",
        [
          Alcotest.test_case "metrics op, json and prometheus" `Quick test_metrics_op;
          Alcotest.test_case "timeout carries flight recorder" `Quick
            test_timeout_carries_flight_recorder;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "insert/delete through live sessions" `Quick test_insert_delete;
          Alcotest.test_case "one write reaches every cached query" `Quick
            test_write_reaches_every_query;
          Alcotest.test_case "responsibility and rank" `Quick test_responsibility_and_rank;
          Alcotest.test_case "false query answers by question" `Quick
            test_query_false_by_question;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "batch drains past shutdown" `Quick test_shutdown_drains_batch;
          Alcotest.test_case "engine never raises" `Quick test_engine_never_raises;
        ] );
    ]
