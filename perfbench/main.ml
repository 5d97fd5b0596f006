(* The benchmark's entry point: one workload in one process.

     main.exe --workload oneshot|serve|batch --seed N --seconds S --trace 0|1
              [--fixed-ops] [--answers FILE] [--base-op-s X] [--trace-file FILE]

   --trace 0 measures the end-to-end metrics over S seconds of op time.
   --trace 1 installs the Obs sink and prints the per-layer metrics.
   --fixed-ops runs the workload's fixed op count for S instead of a time
   bound, so two runs do the same work; [run.py] pairs an untraced
   fixed-ops run (which writes --answers) with the traced one (which checks
   its answers against them and reports its overhead against --base-op-s).
   The last line of output is the result as one JSON object. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let fixed = ref false
let answers = ref ""
let base_op_s = ref 0.
let trace_file = ref ""

let spec =
  [
    ("--workload", Arg.Set_string workload, "oneshot|serve|batch");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_int seconds, "S seconds of op time to measure");
    ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ("--fixed-ops", Arg.Set fixed, " run a fixed op count instead of a time bound");
    ("--answers", Arg.Set_string answers, "FILE answer log (written untraced, checked traced)");
    ("--base-op-s", Arg.Set_float base_op_s, "X op time of the untraced twin run");
    ("--trace-file", Arg.Set_string trace_file, "FILE Chrome trace output");
  ]

(* Ops per 10 s of --seconds in a fixed-ops run: half (oneshot) to a fifth
   (serve) of what an untraced run completes in that time on a 2-vCPU
   container, so that the twin runs stay well inside the time limit. *)
let fixed_ops_per_10s = [ ("oneshot", 2000); ("serve", 700); ("batch", 600) ]

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe --workload W";
  let run =
    match !workload with
    | "oneshot" -> Oneshot.run
    | "serve" -> Serve_load.run
    | "batch" -> Batch.run
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  let traced = !trace = 1 in
  let fixed_ops =
    if !fixed then Some (List.assoc !workload fixed_ops_per_10s * !seconds / 10) else None
  in
  let answers_out =
    if !answers <> "" && not traced then Some (open_out !answers) else None
  in
  let answers_in = if !answers <> "" && traced then Some (open_in !answers) else None in
  let h =
    Harness.create ~workload:!workload ~traced ~seconds:(float_of_int !seconds) ~fixed_ops
      ~reps:(if traced || !fixed then 1 else 5)
      ~answers_out ~answers_in
  in
  if traced then Obs.Sink.install ();
  run h ~seed:!seed;
  let gc1 = Gc.quick_stat () in
  let counters1 = Obs.Counter.snapshot () in
  Option.iter close_out answers_out;
  Option.iter close_in answers_in;
  let metrics =
    if not traced then begin
      Report.describe_samples h;
      Report.end_to_end h
    end
    else begin
      let spans = Obs.Trace.drain () in
      Obs.Sink.uninstall ();
      if !trace_file <> "" then Obs.Export.chrome_to_file !trace_file spans;
      let metrics, st =
        Report.per_layer h ~spans ~counters1 ~gc1
          ~base_op_s:(if !base_op_s > 0. then Some !base_op_s else None)
      in
      Report.describe_self st;
      metrics
    end
  in
  let correct = h.Harness.failed = 0 in
  print_endline
    (Report.result_line ~correct ~attempted:h.Harness.attempted ~failed:h.Harness.failed metrics);
  exit (if correct then 0 else 1)
