(* Turning a finished run into metrics.  End-to-end metrics come from the
   untraced run's op latencies; per-layer metrics from the traced run's
   spans, the program's Obs counters and the benchmark's own tallies. *)

let div a b = if b = 0. then 0. else a /. b
let median xs = Harness.percentile 50. xs

(* --- end to end ----------------------------------------------------------- *)

let end_to_end (h : Harness.t) =
  let ms xs = 1000. *. median xs in
  let kind k = Harness.samples h (Harness.kind_name k) in
  let n = float_of_int h.Harness.attempted in
  let heap_mb = float_of_int (h.Harness.heap_top_words * (Sys.word_size / 8)) /. 1048576. in
  [
    ("setup_s", "s", median (Harness.samples h "setup"));
    ("op_ms_p50", "ms", ms (Harness.samples h "op"));
    ("op_ms_p99", "ms", 1000. *. Harness.percentile 99. (Harness.samples h "op"));
    ("ops_per_s", "1/s", div n h.Harness.busy);
    ("ok_frac", "ratio", div (n -. float_of_int h.Harness.failed) n);
    ("heap_peak_mb", "MB", heap_mb);
    ("res_ms_p50", "ms", ms (kind Harness.Res));
    ("rsp_ms_p50", "ms", ms (kind Harness.Rsp));
    ("write_ms_p50", "ms", ms (kind Harness.Write));
    ("enum_ms_p50", "ms", ms (kind Harness.Enum));
  ]

(* Sample counts beside the latency metrics, for the human reading the log. *)
let describe_samples (h : Harness.t) =
  let n = List.length (Harness.samples h "op") in
  Printf.printf "ops %d (p99 has %d samples beyond it), op time %.3f s, set-ups %d\n" n
    (n - int_of_float (Float.ceil (0.99 *. float_of_int n)))
    h.Harness.busy
    (List.length (Harness.samples h "setup"));
  List.iter
    (fun k ->
      let xs = Harness.samples h (Harness.kind_name k) in
      Printf.printf "  %-5s samples %5d  p50 %9.3f ms  p99 %9.3f ms  max %9.3f ms\n" (Harness.kind_name k)
        (List.length xs) (1000. *. median xs) (1000. *. Harness.percentile 99. xs)
        (1000. *. Harness.percentile 100. xs))
    [ Harness.Res; Harness.Rsp; Harness.Write; Harness.Enum ]

(* --- spans ---------------------------------------------------------------- *)

type span_stats = {
  busy : (string, float) Hashtbl.t;  (* layer -> summed span duration *)
  self : (string, float) Hashtbl.t;  (* layer -> duration minus child spans *)
  op_time : float;  (* summed duration of op spans *)
  covered : float;  (* part of it covered by layer spans of the same op *)
}

let arg k (s : Obs.Trace.span) = List.assoc_opt k s.Obs.Trace.args

(* Nesting by interval containment on the one recording domain: spans sorted
   by start (outer first on ties) and a stack of open ancestors.  Spans the
   library records itself (no "layer" arg) count as children too, so a
   layer's self time excludes the library's own spans inside it. *)
let span_stats workload spans =
  let busy = Hashtbl.create 16 and self = Hashtbl.create 16 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  let ours (s : Obs.Trace.span) = arg "workload" s = Some workload in
  let layer_of s = Option.value ~default:s.Obs.Trace.name (arg "layer" s) in
  let sorted =
    List.stable_sort
      (fun (a : Obs.Trace.span) (b : Obs.Trace.span) ->
        match compare a.Obs.Trace.t0 b.Obs.Trace.t0 with 0 -> compare b.Obs.Trace.t1 a.Obs.Trace.t1 | c -> c)
      spans
  in
  let op_time = ref 0. and covered = ref 0. in
  let stack = ref [] in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let dur = s.Obs.Trace.t1 -. s.Obs.Trace.t0 in
      let rec pop () =
        match !stack with
        | (top : Obs.Trace.span) :: rest when top.Obs.Trace.t1 <= s.Obs.Trace.t0 ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | parent :: _ ->
        add self (layer_of parent) (-.dur);
        if ours parent && parent.Obs.Trace.name = "op" && ours s && arg "op" s = arg "op" parent then
          covered := !covered +. dur
      | [] -> ());
      add self (layer_of s) dur;
      if ours s then
        if s.Obs.Trace.name = "op" then op_time := !op_time +. dur else add busy (layer_of s) dur;
      stack := s :: !stack)
    sorted;
  { busy; self; op_time = !op_time; covered = !covered }

(* --- per layer ------------------------------------------------------------ *)

let per_layer (h : Harness.t) ~spans ~counters1 ~gc1 ~base_op_s =
  let counters0 = h.Harness.counters0 and gc0 = h.Harness.gc0 in
  let st = span_stats h.Harness.workload spans in
  let busy l = Option.value ~default:0. (Hashtbl.find_opt st.busy l) in
  let t = Harness.tally h in
  let get snap k = float_of_int (Option.value ~default:0 (List.assoc_opt k snap)) in
  let delta k = get counters1 k -. get counters0 k in
  let peak k = get counters1 k in
  let p50_us k = match Harness.samples h k with [] -> 0. | xs -> 1e6 *. median xs in
  let ops = float_of_int h.Harness.attempted in
  let pivots_in l = t (l ^ ".pivots") in
  let m = ref [] in
  let put name unit v = m := (name, unit, v) :: !m in
  (* relalg.eval *)
  put "relalg.eval.busy_s" "s" (busy "relalg.eval");
  put "relalg.eval.witnesses" "count" (delta "eval.witness_count");
  put "relalg.eval.witnesses_per_s" "1/s" (div (t "relalg.eval.witnesses_out") (busy "relalg.eval"));
  put "relalg.eval.minor_words" "words" (t "relalg.eval.minor_words");
  (* resilience.encode *)
  put "resilience.encode.busy_s" "s" (busy "resilience.encode");
  put "resilience.encode.rows" "count" (t "resilience.encode.rows");
  put "resilience.encode.rows_per_s" "1/s" (div (t "resilience.encode.rows") (busy "resilience.encode"));
  put "resilience.encode.minor_words" "words" (t "resilience.encode.minor_words");
  (* lp.frozen *)
  put "lp.frozen.busy_s" "s" (busy "lp.frozen");
  put "lp.frozen.nnz" "count" (t "lp.frozen.nnz");
  (* lp.presolve *)
  put "lp.presolve.busy_s" "s" (busy "lp.presolve");
  put "lp.presolve.rows_in" "count" (t "lp.presolve.rows_in");
  put "lp.presolve.rows_removed" "count" (t "lp.presolve.rows_removed");
  put "lp.presolve.removed_frac" "ratio" (div (t "lp.presolve.rows_removed") (t "lp.presolve.rows_in"));
  put "lp.presolve.passes" "count" (t "lp.presolve.passes");
  (* lp.struct *)
  put "lp.struct.busy_s" "s" (busy "lp.struct");
  put "lp.struct.analyses" "count" (t "lp.struct.calls");
  put "lp.struct.integral_frac" "ratio" (div (t "lp.struct.integral") (t "lp.struct.calls"));
  (* lp.simplex: rates over the root relaxations the benchmark times, counts
     over everything the program pivoted during the ops *)
  put "lp.simplex.busy_s" "s" (busy "lp.simplex");
  put "lp.simplex.pivots" "count" (delta "simplex.pivots");
  put "lp.simplex.pivots_per_s" "1/s" (div (pivots_in "lp.simplex") (busy "lp.simplex"));
  put "lp.simplex.us_per_pivot" "us" (div (1e6 *. busy "lp.simplex") (pivots_in "lp.simplex"));
  put "lp.simplex.refactors" "count" (delta "simplex.refactors");
  put "lp.simplex.bland_falls" "count" (delta "simplex.bland_falls");
  put "lp.simplex.bound_flips" "count" (delta "simplex.bound_flips");
  put "lp.simplex.ftran_nnz_frac" "ratio" (div (delta "simplex.ftran_nnz") (delta "simplex.ftran_len"));
  put "lp.simplex.lu_fill_pct" "%" (peak "simplex.lu_fill_pct");
  put "lp.simplex.eta_peak" "count" (peak "simplex.eta_peak");
  (* lp.branch_bound *)
  put "lp.branch_bound.busy_s" "s" (busy "lp.branch_bound");
  put "lp.branch_bound.nodes" "count" (delta "bb.nodes");
  put "lp.branch_bound.nodes_per_s" "1/s" (div (t "lp.branch_bound.nodes") (busy "lp.branch_bound"));
  put "lp.branch_bound.pruned" "count" (delta "bb.pruned");
  put "lp.branch_bound.incumbents" "count" (delta "bb.incumbents");
  put "lp.branch_bound.max_depth" "count" (peak "bb.max_depth");
  put "lp.branch_bound.budget_hits" "count" (delta "bb.budget_hits");
  (* resilience.session *)
  put "resilience.session.create_s" "s" (t "resilience.session.create_s");
  put "resilience.session.prep_s" "s" (t "resilience.session.prep_s");
  put "resilience.session.solve_s" "s" (t "resilience.session.solve_s");
  put "resilience.session.questions" "count" (t "resilience.session.questions");
  put "resilience.session.certified_frac" "ratio"
    (div (t "resilience.session.certified") (t "resilience.session.answered"));
  (* resilience.enumerate *)
  let cuts = t "resilience.enumerate.cuts" in
  put "resilience.enumerate.cuts" "count" cuts;
  put "resilience.enumerate.cut_pivots" "count" (t "resilience.enumerate.cut_pivots");
  put "resilience.enumerate.pivots_per_cut" "count" (div (t "resilience.enumerate.cut_pivots") cuts);
  put "resilience.enumerate.ms_per_cut" "ms" (div (1000. *. t "resilience.enumerate.time") cuts);
  (* resilience.incremental *)
  put "resilience.incremental.appends" "count" (delta "incremental.appends");
  put "resilience.incremental.rebuilds" "count" (delta "incremental.rebuilds");
  put "resilience.incremental.rebuild_frac" "ratio" (div (delta "incremental.rebuilds") (t "serve.writes"));
  (* serve codec *)
  put "serve.json.parse_us_p50" "us" (p50_us "serve.json.parse");
  put "serve.json.print_us_p50" "us" (p50_us "serve.json.print");
  put "serve.protocol.decode_us_p50" "us" (p50_us "serve.protocol.decode");
  (* serve.engine *)
  let engine = busy "serve.engine" in
  put "serve.engine.busy_s" "s" engine;
  put "serve.engine.cache_hit_frac" "ratio"
    (div (t "serve.cache.hits") (t "serve.cache.hits" +. t "serve.cache.misses"));
  put "serve.engine.solve_s" "s" (t "serve.engine.solve_s");
  put "serve.engine.overhead_frac" "ratio" (if engine = 0. then 0. else 1. -. div (t "serve.engine.solve_s") engine);
  (* gc *)
  put "gc.minor_words_per_op" "words" (div (t "gc.op_minor_words") ops);
  put "gc.major_collections" "count"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
  put "gc.promoted_words" "words" (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
  (* trace *)
  put "trace.coverage_frac" "ratio" (div st.covered st.op_time);
  put "trace.overhead_frac" "ratio"
    (match base_op_s with Some b when b > 0. -> (st.op_time /. b) -. 1. | _ -> 0.);
  (List.rev !m, st)

(* Self time per layer, largest first, for the human reading the log. *)
let describe_self st =
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.self [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b a) rows in
  Printf.printf "self time by span (op spans: %.3f s, covered by layer spans: %.1f%%)\n" st.op_time
    (100. *. div st.covered st.op_time);
  List.iter (fun (k, v) -> Printf.printf "  %-28s %10.4f s\n" k v) rows

(* --- the result line ------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " body)
