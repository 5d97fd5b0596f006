(* Obs: the observability subsystem must be invisible when disabled (no
   recording, no behaviour change), exact when enabled (counter totals under
   multi-domain stress, well-nested spans per track), and schema-stable
   (static counter key set, fixed-format export). *)

let c_a = Obs.Counter.create "test.alpha"
let c_b = Obs.Counter.create "test.beta"
let c_max = Obs.Counter.create "test.peak"

(* Every test leaves the sink uninstalled so order doesn't matter. *)
let with_sink f =
  Obs.Sink.install ();
  Fun.protect ~finally:Obs.Sink.uninstall f

(* --- Clock ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Obs.Clock.now () in
    Alcotest.(check bool) "now never decreases" true (t >= !prev);
    prev := t
  done;
  Alcotest.(check bool) "elapsed clamps at 0" true (Obs.Clock.elapsed (Obs.Clock.now () +. 60.) = 0.)

let test_clock_cross_domain () =
  (* The high-water mark is global: a timestamp taken on one domain bounds
     reads on another from below. *)
  let t0 = Obs.Clock.now () in
  let t1 = Domain.join (Domain.spawn (fun () -> Obs.Clock.now ())) in
  Alcotest.(check bool) "cross-domain monotone" true (t1 >= t0)

(* --- Disabled sink: zero observable effect ----------------------------------- *)

let test_disabled_drops_everything () =
  Obs.Sink.uninstall ();
  Alcotest.(check bool) "inactive" false (Obs.Sink.active ());
  let before = Obs.Counter.value c_a in
  Obs.Counter.incr c_a;
  Obs.Counter.add c_a 100;
  Obs.Counter.record_max c_a 1_000_000;
  Alcotest.(check int) "counter bumps dropped" before (Obs.Counter.value c_a);
  Alcotest.(check bool) "begin_ is nan" true (Float.is_nan (Obs.Trace.begin_ ()));
  Obs.Trace.end_ (Obs.Trace.begin_ ()) "test.noop";
  Obs.Trace.instant "test.noop";
  Alcotest.(check int) "with_span still runs the body" 42
    (Obs.Trace.with_span "test.noop" (fun () -> 42));
  Alcotest.(check (list string)) "nothing buffered" []
    (List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.drain ()))

let test_disabled_same_answers () =
  (* A traced run and an untraced run of the same solve return identical
     results — instrumentation must never leak into answers. *)
  let solve () =
    let q = Relalg.Cq_parser.parse "Q :- R(x, y), S(y)" in
    let db = Relalg.Database.create () in
    List.iter
      (fun (r, args) -> ignore (Relalg.Database.add db r args))
      [
        ("R", [| 1; 2 |]); ("R", [| 2; 2 |]); ("R", [| 3; 4 |]);
        ("S", [| 2 |]); ("S", [| 4 |]);
      ];
    let session = Resilience.Session.create Resilience.Problem.Set q db in
    Resilience.Session.ranking ~jobs:2 session
  in
  let plain = solve () in
  let traced = with_sink solve in
  ignore (Obs.Trace.drain ());
  Alcotest.(check bool) "ranked something" true (plain <> []);
  Alcotest.(check bool) "identical rankings" true (plain = traced)

(* --- Counters ----------------------------------------------------------------- *)

let test_counter_idempotent_create () =
  let again = Obs.Counter.create "test.alpha" in
  with_sink (fun () ->
      Obs.Counter.incr c_a;
      Alcotest.(check int) "same cell" (Obs.Counter.value c_a) (Obs.Counter.value again))

let test_counter_snapshot_static () =
  (* The key set is a property of which modules are linked, not of whether
     anything ran: install resets values but never removes keys. *)
  let keys () = List.map fst (Obs.Counter.snapshot ()) in
  let k0 = keys () in
  Alcotest.(check bool) "registered" true (List.mem "test.alpha" k0);
  Alcotest.(check bool) "sorted" true (List.sort compare k0 = k0);
  with_sink (fun () -> Obs.Counter.incr c_b);
  Alcotest.(check (list string)) "key set unchanged by a run" k0 (keys ())

let test_counter_atomic_under_stress () =
  (* 10k increments race from 2..8 domains; the total must be exact, and a
     concurrent record_max must converge to the true maximum. *)
  for jobs = 2 to 8 do
    with_sink (fun () ->
        let tasks = 10_000 in
        Lp.Pool.with_pool ~jobs (fun pool ->
            ignore
              (Lp.Pool.run ~chunk:7 pool ~tasks (fun i ->
                   Obs.Counter.incr c_a;
                   Obs.Counter.add c_b 3;
                   Obs.Counter.record_max c_max (i + 1))));
        Alcotest.(check int)
          (Printf.sprintf "incr total, jobs=%d" jobs)
          tasks (Obs.Counter.value c_a);
        Alcotest.(check int)
          (Printf.sprintf "add total, jobs=%d" jobs)
          (3 * tasks) (Obs.Counter.value c_b);
        Alcotest.(check int)
          (Printf.sprintf "max, jobs=%d" jobs)
          tasks (Obs.Counter.value c_max));
    ignore (Obs.Trace.drain ())
  done

(* --- Spans --------------------------------------------------------------------- *)

let test_span_records_on_exception () =
  with_sink (fun () ->
      (match Obs.Trace.with_span "test.raises" (fun () -> failwith "boom") with
      | () -> Alcotest.fail "exception swallowed"
      | exception Failure _ -> ());
      let names = List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.drain ()) in
      Alcotest.(check bool) "span recorded anyway" true (List.mem "test.raises" names))

let check_well_formed spans =
  List.iter
    (fun (s : Obs.Trace.span) ->
      Alcotest.(check bool) (s.Obs.Trace.name ^ " has t1 >= t0") true (s.Obs.Trace.t1 >= s.Obs.Trace.t0))
    spans;
  (* drain sorts by start time *)
  let starts = List.map (fun s -> s.Obs.Trace.t0) spans in
  Alcotest.(check bool) "sorted by t0" true (List.sort compare starts = starts)

let test_span_nesting_under_pool () =
  (* Each pool width: chunk spans nest inside the batch span on every track,
     and per-domain buffers survive the workers' death (with_pool joins
     them before we drain). *)
  List.iter
    (fun jobs ->
      with_sink (fun () ->
          Lp.Pool.with_pool ~jobs (fun pool ->
              ignore
                (Lp.Pool.run ~chunk:11 pool ~tasks:500 (fun i ->
                     Obs.Trace.with_span "test.task" (fun () -> i * 2))));
          let spans = Obs.Trace.drain () in
          check_well_formed spans;
          let named n = List.filter (fun s -> s.Obs.Trace.name = n) spans in
          let batch =
            match named "pool.batch" with
            | [ b ] -> b
            | bs -> Alcotest.failf "expected 1 pool.batch, got %d" (List.length bs)
          in
          let chunks = named "pool.chunk" in
          Alcotest.(check bool) "at least one chunk" true (chunks <> []);
          List.iter
            (fun (c : Obs.Trace.span) ->
              Alcotest.(check bool)
                (Printf.sprintf "chunk within batch (jobs=%d)" jobs)
                true
                (c.Obs.Trace.t0 >= batch.Obs.Trace.t0 && c.Obs.Trace.t1 <= batch.Obs.Trace.t1))
            chunks;
          Alcotest.(check int)
            (Printf.sprintf "every task spanned (jobs=%d)" jobs)
            500 (List.length (named "test.task"));
          (* chunk spans carry their task count *)
          let counted =
            List.fold_left
              (fun acc (c : Obs.Trace.span) ->
                match List.assoc_opt "tasks" c.Obs.Trace.args with
                | Some n -> acc + int_of_string n
                | None -> acc)
              0 chunks
          in
          Alcotest.(check int) "chunk args sum to the batch" 500 counted))
    [ 1; 2; 4; 8 ]

(* --- Export -------------------------------------------------------------------- *)

let test_chrome_export () =
  let spans =
    with_sink (fun () ->
        Obs.Trace.with_span "test.outer" (fun () ->
            Obs.Trace.with_span
              ~args:(fun () -> [ ("k", "v\"quoted\"") ])
              "test.inner"
              (fun () -> ()));
        Obs.Trace.drain ())
  in
  let path = Filename.temp_file "obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Export.chrome_to_file path spans;
      let ic = open_in path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "traceEvents doc" true
        (String.length body > 0 && String.sub body 0 15 = {|{"traceEvents":|});
      let has needle =
        let n = String.length needle and m = String.length body in
        let rec go i = i + n <= m && (String.sub body i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "complete events" true (has {|"ph":"X"|});
      Alcotest.(check bool) "both spans" true (has "test.outer" && has "test.inner");
      Alcotest.(check bool) "escaped args" true (has {|\"quoted\"|});
      Alcotest.(check bool) "thread metadata" true (has {|"thread_name"|}))

let test_stats_json () =
  let spans =
    with_sink (fun () ->
        Obs.Counter.incr c_a;
        Obs.Trace.with_span "test.outer" (fun () -> ());
        Obs.Trace.drain ())
  in
  let s = Obs.Export.stats_json spans in
  let has needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counters object" true (has {|"counters": {|});
  Alcotest.(check bool) "our counter at 1" true (has {|"test.alpha": 1|});
  Alcotest.(check bool) "span aggregate" true (has {|"test.outer": {"count": 1, "total_s":|});
  Alcotest.(check bool) "wall clock" true (has {|"wall_s":|});
  (* fixed-width floats only: %g would break digit-normalized goldens *)
  Alcotest.(check bool) "no scientific notation" true (not (has "e-") && not (has "e+"))

(* --- Counter registry is live (regression) ------------------------------------ *)

let test_counter_snapshot_live () =
  (* A counter registered after a snapshot was taken must appear in every
     later snapshot — the registry is live, not frozen at first export.
     (Regression: an earlier doc claimed the key set was static per build,
     which a dynamically created counter silently violated.) *)
  let k0 = List.map fst (Obs.Counter.snapshot ()) in
  Alcotest.(check bool) "not yet present" false (List.mem "test.late_registered" k0);
  let late = Obs.Counter.create "test.late_registered" in
  with_sink (fun () -> Obs.Counter.incr late);
  ignore (Obs.Trace.drain ());
  let snap = Obs.Counter.snapshot () in
  Alcotest.(check bool) "late counter visible" true (List.mem_assoc "test.late_registered" snap);
  Alcotest.(check bool) "still sorted" true
    (let keys = List.map fst snap in
     List.sort compare keys = keys)

(* --- Histograms ---------------------------------------------------------------- *)

(* The no-interpolation sorted-array oracle Histogram.percentile is
   specified against. *)
let oracle_percentile p samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) rank))

let adversarial_distributions =
  [
    ("uniform", List.init 1000 (fun i -> float_of_int (i + 1) /. 100.));
    (* ~13 decades, 1e-6 up to ~7e6 — inside the summable range *)
    ("exponential", List.init 1000 (fun i -> 1e-6 *. (1.03 ** float_of_int i)));
    ("bimodal", List.init 1000 (fun i -> if i mod 2 = 0 then 0.001 else 1000.));
    ("heavy-tail", List.init 1000 (fun i -> 1. /. (1. -. (float_of_int i /. 1001.))));
    ("constant", List.init 1000 (fun _ -> 3.141592));
    ("outliers", (1e9 :: 1e-9 :: List.init 998 (fun i -> float_of_int (i + 1))));
  ]

let test_histogram_bre_vs_oracle () =
  List.iter
    (fun (name, samples) ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.observe h) samples;
      Alcotest.(check int) (name ^ ": count") (List.length samples) (Obs.Histogram.count h);
      let true_sum = List.fold_left ( +. ) 0. samples in
      Alcotest.(check bool)
        (name ^ ": sum within fixed-point granularity")
        true
        (Float.abs (Obs.Histogram.sum h -. true_sum)
        <= (1e-6 *. float_of_int (List.length samples)) +. (1e-9 *. Float.abs true_sum));
      List.iter
        (fun p ->
          let got = Obs.Histogram.percentile h p in
          let want = oracle_percentile p samples in
          let err = Float.abs (got -. want) /. want in
          Alcotest.(check bool)
            (Printf.sprintf "%s p%g: |%g - %g| / %g within bound" name p got want want)
            true
            (err <= Obs.Histogram.rel_error +. 1e-12))
        [ 0.1; 1.; 10.; 25.; 50.; 75.; 90.; 99.; 99.9; 100. ])
    adversarial_distributions

let test_histogram_empty_and_clamp () =
  let h = Obs.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  Alcotest.(check bool) "empty percentile is NaN" true
    (Float.is_nan (Obs.Histogram.percentile h 50.));
  (* Non-positive, NaN and out-of-range values clamp instead of crashing. *)
  List.iter (Obs.Histogram.observe h) [ 0.; -5.; Float.nan; 1e300; infinity; 1e-300 ];
  Alcotest.(check int) "clamped values all recorded" 6 (Obs.Histogram.count h);
  let s = Obs.Histogram.snapshot h in
  Alcotest.(check int) "snapshot total agrees" 6 s.Obs.Histogram.total

let test_histogram_merge_bit_identical () =
  (* The same multiset of samples must yield a bit-identical snapshot no
     matter which domains recorded them: all state is integers, so the
     shard merge is commutative/associative addition. *)
  let samples =
    Array.init 5000 (fun i -> 1e-4 *. float_of_int (((i * 7919) mod 100_000) + 1))
  in
  let snap_at jobs =
    let h = Obs.Histogram.create () in
    Lp.Pool.with_pool ~jobs (fun pool ->
        ignore
          (Lp.Pool.run ~chunk:13 pool ~tasks:(Array.length samples) (fun i ->
               Obs.Histogram.observe h samples.(i))));
    Obs.Histogram.snapshot h
  in
  let s1 = snap_at 1 in
  Alcotest.(check int) "all samples recorded" (Array.length samples) s1.Obs.Histogram.total;
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d snapshot bit-identical to jobs=1" jobs)
        true
        (snap_at jobs = s1))
    [ 2; 4 ];
  (* Explicit merge agrees with recording everything into one histogram. *)
  let ha = Obs.Histogram.create () and hb = Obs.Histogram.create () in
  Array.iteri
    (fun i v -> Obs.Histogram.observe (if i mod 2 = 0 then ha else hb) v)
    samples;
  Alcotest.(check bool) "merge of halves = whole" true
    (Obs.Histogram.merge (Obs.Histogram.snapshot ha) (Obs.Histogram.snapshot hb) = s1)

(* --- Metrics registry and exposition ------------------------------------------- *)

let m_c = Obs.Counter.create ~help:"test metric counter" "test.metrics.count"
let m_g = Obs.Metrics.gauge ~help:"test metric gauge" "test.metrics.gauge"
let m_h = Obs.Metrics.histogram ~help:"test latency" ~labels:[ ("op", "x") ] "test.metrics.lat"

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_metrics_gated_off () =
  Obs.Sink.uninstall ();
  Obs.Sink.disarm_metrics ();
  Obs.Counter.incr m_c;
  Obs.Counter.add m_c 10;
  Obs.Metrics.set m_g 5.;
  Obs.Metrics.observe m_h 1.;
  let series = Obs.Metrics.snapshot () in
  let find name =
    List.find (fun s -> s.Obs.Metrics.sname = name) series
  in
  (match (find "test.metrics.count").Obs.Metrics.svalue with
  | Obs.Metrics.Vcounter v -> Alcotest.(check int) "counter dropped" 0 v
  | _ -> Alcotest.fail "wrong kind");
  match (find "test.metrics.lat").Obs.Metrics.svalue with
  | Obs.Metrics.Vhist h -> Alcotest.(check int) "histogram dropped" 0 h.Obs.Histogram.total
  | _ -> Alcotest.fail "wrong kind"

let test_metrics_idempotent_and_kinds () =
  let again = Obs.Counter.create "test.metrics.count" in
  Obs.Sink.arm_metrics ();
  Fun.protect ~finally:Obs.Sink.disarm_metrics @@ fun () ->
  Obs.Counter.incr m_c;
  Obs.Counter.incr again;
  (match
     (List.find
        (fun s -> s.Obs.Metrics.sname = "test.metrics.count")
        (Obs.Metrics.snapshot ()))
       .Obs.Metrics.svalue
   with
  | Obs.Metrics.Vcounter v -> Alcotest.(check int) "same cell" 2 v
  | _ -> Alcotest.fail "wrong kind");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Obs.Metrics: \"test.metrics.count\" re-registered with a different kind")
    (fun () -> ignore (Obs.Metrics.gauge "test.metrics.count"))

let test_metrics_exposition () =
  (* install resets every instrument, then arm the metrics plane alone. *)
  Obs.Sink.install ();
  Obs.Sink.uninstall ();
  ignore (Obs.Trace.drain ());
  Obs.Sink.arm_metrics ();
  Fun.protect ~finally:Obs.Sink.disarm_metrics @@ fun () ->
  Obs.Counter.add m_c 3;
  Obs.Metrics.set m_g 2.5;
  List.iter (Obs.Metrics.observe m_h) [ 0.0005; 0.05; 0.05; 5. ];
  let prom = Obs.Metrics.prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "prometheus has %S" needle) true
        (contains prom needle))
    [
      "# HELP test_metrics_count test metric counter";
      "# TYPE test_metrics_count counter";
      "test_metrics_count 3";
      "# TYPE test_metrics_gauge gauge";
      "test_metrics_gauge 2.500000";
      "# TYPE test_metrics_lat histogram";
      "test_metrics_lat_bucket{op=\"x\",le=\"0.001\"} 1";
      "test_metrics_lat_bucket{op=\"x\",le=\"0.1\"} 3";
      "test_metrics_lat_bucket{op=\"x\",le=\"+Inf\"} 4";
      "test_metrics_lat_count{op=\"x\"} 4";
    ];
  let js = Obs.Json.to_string (Obs.Metrics.json ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %S" needle) true (contains js needle))
    [
      "\"counters\":{"; "\"test.metrics.count\":3"; "\"test.metrics.gauge\":2.5";
      "\"test.metrics.lat{op=x}\":{\"count\":4"; "\"p50\":"; "\"p999\":";
    ];
  (* Quantiles of an empty histogram read 0.0, never NaN, so the JSON
     stays parseable and digit-normalizable. *)
  Alcotest.(check bool) "no NaN in json" true (not (contains js "nan"))

(* --- Flight recorder ------------------------------------------------------------ *)

let test_recorder_ring () =
  Obs.Sink.install ();
  Obs.Sink.uninstall ();
  Obs.Sink.disarm_recorder ();
  Obs.Recorder.note ~fields:[ ("k", "1") ] "dropped";
  Alcotest.(check int) "disarmed notes nothing" 0 (List.length (Obs.Recorder.dump ()));
  Obs.Sink.arm_recorder ();
  Fun.protect ~finally:Obs.Sink.disarm_recorder @@ fun () ->
  for i = 1 to 100 do
    Obs.Recorder.note ~fields:[ ("i", string_of_int i) ] "op"
  done;
  let evs = Obs.Recorder.dump () in
  Alcotest.(check int) "ring keeps the last 64" 64 (List.length evs);
  let is = List.map (fun e -> int_of_string (List.assoc "i" e.Obs.Trace.args)) evs in
  Alcotest.(check (list int)) "oldest-first, newest retained" (List.init 64 (fun k -> 37 + k)) is;
  Alcotest.(check bool) "events are instants" true
    (List.for_all (fun e -> e.Obs.Trace.t0 = e.Obs.Trace.t1) evs);
  Alcotest.(check (list string)) "span buffers untouched" []
    (List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.drain ()));
  let js = Serve.Engine.recorder_json () in
  Alcotest.(check bool) "json envelope" true (contains js "\"flight_recorder\":[");
  (match Option.bind (Obs.Json.member "flight_recorder" (Obs.Json.of_string js)) Obs.Json.to_list_opt with
  | Some l -> Alcotest.(check int) "every retained event rendered" 64 (List.length l)
  | None -> Alcotest.fail "no flight_recorder list");
  Obs.Sink.install ();
  Obs.Sink.uninstall ();
  Alcotest.(check int) "install empties" 0 (List.length (Obs.Recorder.dump ()))

(* --- Runlog --------------------------------------------------------------------- *)

let test_runlog_records () =
  let path = Filename.temp_file "runlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Runlog.record (fun () -> Alcotest.fail "thunk must not run while disabled");
  Obs.Runlog.enable path;
  Alcotest.(check bool) "enabled" true (Obs.Runlog.enabled ());
  Obs.Runlog.record (fun () ->
      [
        ("op", Obs.Json.Str "test");
        ("rows", Obs.Json.Int 7);
        ("wall_s", Obs.Json.Float 0.25);
        ("certified", Obs.Json.Bool true);
        ("bad", Obs.Json.Float Float.nan);
      ]);
  Obs.Runlog.disable ();
  Alcotest.(check bool) "disabled again" false (Obs.Runlog.enabled ());
  let ic = open_in path in
  let header = input_line ic in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check string) "versioned header"
    (Printf.sprintf {|{"runlog":"resil-solve","version":%d}|} Obs.Runlog.schema_version)
    header;
  Alcotest.(check string) "record line"
    {|{"op":"test","rows":7,"wall_s":0.25,"certified":true,"bad":null}|} line

let test_runlog_from_solve () =
  (* End to end: a solve through Resilience.Solve with the runlog enabled
     appends one record, under a version-2 header, carrying features and
     outcome. *)
  let path = Filename.temp_file "runlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let q = Relalg.Cq_parser.parse "Q :- R(x, y), S(y)" in
  let db = Relalg.Database.create () in
  List.iter
    (fun (r, args) -> ignore (Relalg.Database.add db r args))
    [ ("R", [| 1; 2 |]); ("R", [| 2; 2 |]); ("S", [| 2 |]) ];
  Obs.Runlog.enable path;
  (match Resilience.Solve.resilience Resilience.Problem.Set q db with
  | Resilience.Solve.Solved _ -> ()
  | _ -> Alcotest.fail "expected a solved instance");
  Obs.Runlog.disable ();
  let ic = open_in path in
  let header = input_line ic in
  let record = input_line ic in
  close_in ic;
  Alcotest.(check string) "v2 header" {|{"runlog":"resil-solve","version":2}|} header;
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "record has %S" needle) true
        (contains record needle))
    [
      "\"op\":\"resilience\""; "\"status\":\"optimal\""; "\"path\":"; "\"rows\":";
      "\"cols\":"; "\"nnz\":"; "\"certified\":"; "\"wall_s\":";
    ];
  (* v2 dropped the structure analysis verdict: no solve path runs it. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "record lacks %S" needle) false
        (contains record needle))
    [ "\"verdict\":"; "\"structural\":" ]

(* --- Off path allocates nothing -------------------------------------------------- *)

let test_disarmed_no_alloc () =
  (* The "off path is one atomic load" contract, checked deterministically:
     with nothing armed, 10^5 calls of each instrument leave the minor heap
     untouched (the measurement's own cost is taken from an empty body). *)
  Obs.Sink.uninstall ();
  Obs.Sink.disarm_metrics ();
  Obs.Sink.disarm_recorder ();
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = words (fun () -> ()) in
  List.iter
    (fun (name, f) ->
      let used = words (fun () -> for i = 1 to 100_000 do f i done) in
      Alcotest.(check (float 0.)) (name ^ " allocates nothing") base used)
    [
      ("Counter.incr", fun _ -> Obs.Counter.incr c_a);
      ("Counter.add", fun i -> Obs.Counter.add c_a i);
      ("Counter.record_max", fun i -> Obs.Counter.record_max c_max i);
      ("Metrics.observe", fun _ -> Obs.Metrics.observe m_h 1.);
      ("Metrics.set", fun _ -> Obs.Metrics.set m_g 5.);
      ("Recorder.note", fun _ -> Obs.Recorder.note "test.off");
      ("Trace.begin_/end_", fun _ -> Obs.Trace.end_ (Obs.Trace.begin_ ()) "test.off");
      ("Trace.instant", fun _ -> Obs.Trace.instant "test.off");
    ]

(* --- One registry ------------------------------------------------------------- *)

let test_registry_one_kind_per_name () =
  let _ = Obs.Counter.create "test.registry.kind" in
  Alcotest.check_raises "histogram over a counter"
    (Invalid_argument "Obs.Metrics: \"test.registry.kind\" re-registered with a different kind")
    (fun () -> ignore (Obs.Metrics.histogram "test.registry.kind"));
  let _ = Obs.Metrics.gauge "test.registry.gauge" in
  Alcotest.check_raises "counter over a gauge"
    (Invalid_argument "Obs.Metrics: \"test.registry.gauge\" re-registered with a different kind")
    (fun () -> ignore (Obs.Counter.create "test.registry.gauge"))

let test_install_resets_everything () =
  (* One [Sink.install] zeroes every instrument kind, empties the span
     buffers and clears the recorder rings. *)
  let series name =
    (List.find (fun s -> s.Obs.Metrics.sname = name) (Obs.Metrics.snapshot ())).Obs.Metrics.svalue
  in
  Obs.Sink.arm_metrics ();
  Obs.Sink.arm_recorder ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.uninstall ();
      Obs.Sink.disarm_metrics ();
      Obs.Sink.disarm_recorder ())
  @@ fun () ->
  Obs.Counter.incr m_c;
  Obs.Metrics.set m_g 7.;
  Obs.Metrics.observe m_h 0.5;
  Obs.Recorder.note "test.reset";
  Obs.Sink.install ();
  Obs.Trace.instant "test.reset";
  Obs.Sink.install ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.value m_c);
  Alcotest.(check bool) "gauge zeroed" true (series "test.metrics.gauge" = Obs.Metrics.Vgauge 0.);
  (match series "test.metrics.lat" with
  | Obs.Metrics.Vhist h -> Alcotest.(check int) "histogram zeroed" 0 h.Obs.Histogram.total
  | _ -> Alcotest.fail "wrong kind");
  Alcotest.(check int) "span buffers empty" 0 (List.length (Obs.Trace.drain ()));
  Alcotest.(check int) "recorder rings empty" 0 (List.length (Obs.Recorder.dump ()))

(* --- The shared JSON string escaper ------------------------------------------- *)

let parses_as_string s =
  Obs.Json.of_string ("\"" ^ Obs.Json.escape s ^ "\"") = Obs.Json.Str s

let test_escaper_round_trip () =
  let pieces =
    Array.append
      (Array.init 128 (fun c -> String.make 1 (Char.chr c)))
      [| "\xc3\xa9"; "\xe2\x82\xac"; "\xe4\xb8\xad"; "\xf0\x9d\x84\x9e" |]
  in
  Alcotest.(check bool) "every byte 0x00-0x7f at once" true
    (parses_as_string (String.concat "" (Array.to_list pieces)));
  let rng = Random.State.make [| 15 |] in
  for _ = 1 to 2000 do
    let s =
      String.concat ""
        (List.init (Random.State.int rng 24) (fun _ ->
             pieces.(Random.State.int rng (Array.length pieces))))
    in
    if not (parses_as_string s) then Alcotest.failf "no round trip for %S" s
  done;
  Alcotest.(check string) "short forms" {|\"\\\n\r\t\u0001|} (Obs.Json.escape "\"\\\n\r\t\001")

(* A non-finite float has no JSON literal: it prints as [null], so every
   printed document parses, and every finite float reads back bit for
   bit. *)
let test_json_floats () =
  let open Obs.Json in
  List.iter
    (fun f -> Alcotest.(check string) (Printf.sprintf "%h" f) "null" (to_string (Float f)))
    [ Float.nan; infinity; neg_infinity ];
  let rng = Random.State.make [| 20 |] in
  let floats =
    [ 0.; -0.; 0.1; 0.25; 1.; -3.; 1e15; 1e300; 5e-324; Float.max_float; Float.nan; infinity ]
    @ List.init 2000 (fun _ -> Int64.float_of_bits (Random.State.bits64 rng))
  in
  List.iter
    (fun f ->
      let v = Obj [ ("x", List [ Float f; Int 1 ]) ] in
      let back = if Float.is_finite f then Float f else Null in
      match of_string (to_string v) with
      | Obj [ ("x", List [ Float g; Int 1 ]) ] when back = Float g ->
        if Int64.bits_of_float g <> Int64.bits_of_float f then
          Alcotest.failf "%h read back as %h" f g
      | Obj [ ("x", List [ Null; Int 1 ]) ] when back = Null -> ()
      | _ -> Alcotest.failf "%h: %s does not parse back" f (to_string v))
    floats

let hostile = "test.hostile\"\\\n\t"

let test_hostile_names_stay_json () =
  let c = Obs.Counter.create hostile in
  let spans =
    with_sink (fun () ->
        Obs.Counter.incr c;
        Obs.Trace.with_span hostile (fun () -> ());
        Obs.Trace.drain ())
  in
  let member_of name doc =
    match Obs.Json.member name (Obs.Json.of_string doc) with
    | Some v -> v
    | None -> Alcotest.failf "no %S member" name
  in
  let stats = Obs.Export.stats_json spans in
  Alcotest.(check bool) "stats_json counter" true
    (Obs.Json.member hostile (member_of "counters" stats) = Some (Obs.Json.Int 1));
  Alcotest.(check bool) "stats_json span" true
    (Obs.Json.member hostile (member_of "spans" stats) <> None);
  Alcotest.(check bool) "Metrics.json counter" true
    (Obs.Json.member hostile (member_of "counters" (Obs.Json.to_string (Obs.Metrics.json ())))
     <> None);
  let path = Filename.temp_file "runlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Runlog.enable path;
  Obs.Runlog.record (fun () -> [ (hostile, Obs.Json.Str hostile) ]);
  Obs.Runlog.disable ();
  let ic = open_in path in
  let _header = input_line ic in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check bool) "runlog line" true
    (Obs.Json.member hostile (Obs.Json.of_string line) = Some (Obs.Json.Str hostile))

let () =
  let open Alcotest in
  run "obs"
    [
      ( "clock",
        [
          test_case "monotonic" `Quick test_clock_monotonic;
          test_case "cross-domain" `Quick test_clock_cross_domain;
        ] );
      ( "disabled",
        [
          test_case "drops everything" `Quick test_disabled_drops_everything;
          test_case "identical solver answers" `Quick test_disabled_same_answers;
          test_case "disarmed instruments allocate nothing" `Quick test_disarmed_no_alloc;
        ] );
      ( "registry",
        [
          test_case "one kind per name" `Quick test_registry_one_kind_per_name;
          test_case "install resets every kind, spans and rings" `Quick
            test_install_resets_everything;
        ] );
      ( "counters",
        [
          test_case "idempotent create" `Quick test_counter_idempotent_create;
          test_case "static key set" `Quick test_counter_snapshot_static;
          test_case "late registration appears in snapshots" `Quick test_counter_snapshot_live;
          test_case "atomic under 10k-task stress, 2..8 domains" `Quick
            test_counter_atomic_under_stress;
        ] );
      ( "histograms",
        [
          test_case "bounded relative error vs sorted oracle" `Quick test_histogram_bre_vs_oracle;
          test_case "empty and clamped inputs" `Quick test_histogram_empty_and_clamp;
          test_case "bit-identical shard merge, jobs 1/2/4" `Quick
            test_histogram_merge_bit_identical;
        ] );
      ( "metrics",
        [
          test_case "gated off while unarmed" `Quick test_metrics_gated_off;
          test_case "idempotent registration, kind mismatch" `Quick
            test_metrics_idempotent_and_kinds;
          test_case "prometheus and json exposition" `Quick test_metrics_exposition;
        ] );
      ( "recorder",
        [ test_case "ring wrap, arming, dump" `Quick test_recorder_ring ] );
      ( "runlog",
        [
          test_case "header and field rendering" `Quick test_runlog_records;
          test_case "one record per solve" `Quick test_runlog_from_solve;
        ] );
      ( "spans",
        [
          test_case "recorded on exception" `Quick test_span_records_on_exception;
          test_case "nesting under the pool, jobs 1/2/4/8" `Quick test_span_nesting_under_pool;
        ] );
      ( "export",
        [
          test_case "chrome trace document" `Quick test_chrome_export;
          test_case "flat stats json" `Quick test_stats_json;
          test_case "escaper round-trips bytes and UTF-8" `Quick test_escaper_round_trip;
          test_case "floats round-trip, non-finite ones print null" `Quick test_json_floats;
          test_case "hostile names stay valid JSON" `Quick test_hostile_names_stay_json;
        ] );
    ]
