(* resil — command-line front end: classify queries, compute resilience and
   responsibility over text-format instances, and hunt for IJP hardness
   certificates.

     resil classify "A(x), R(x,y), S(y,z), T(z,x)"
     resil resilience --data db.txt --bag "R(x,y), S(y,z)"
     resil responsibility --data db.txt --tuple "S(1,1)" "R(x,y), S(y,z)"
     resil certificate --domain 5 "R(x,y), R(y,z)"
*)

open Cmdliner
open Relalg
open Resilience
module Json = Obs.Json

let semantics_of_bag bag = if bag then Problem.Bag else Problem.Set

let load_db data =
  match data with
  | Some path -> Database_io.load path
  | None -> Database.create ()

let parse_query db s =
  try Ok (Cq_parser.parse_with db s) with Invalid_argument msg -> Error msg

let pp_tuples db tids =
  List.iter (fun tid -> Printf.printf "  %s\n" (Database_io.print_tuple db tid)) tids

let print_json j = print_endline (Json.to_string j)

let json_opt f = function Some v -> f v | None -> Json.Null

(* ----- lint helpers ------------------------------------------------------ *)

let diags_json ds =
  Json.List
    (List.map
       (fun (d : Lp.Lint.diag) ->
         Json.(
           Obj
             [
               ("code", Str d.Lp.Lint.code);
               ("severity", Str (Lp.Lint.severity_name d.Lp.Lint.severity));
               ("message", Str d.Lp.Lint.message);
             ]))
       ds)

let stats_json (s : Lp.Lint.stats) =
  Json.(
    Obj
      [
        ("vars", Int s.Lp.Lint.nvars);
        ("constraints", Int s.Lp.Lint.nconstrs);
        ("nonzeros", Int s.Lp.Lint.nnz);
        ("integer", Int s.Lp.Lint.integer_count);
        ("bounded", Int s.Lp.Lint.bounded_count);
        ("min_abs_coeff", Int s.Lp.Lint.min_abs_coeff);
        ("max_abs_coeff", Int s.Lp.Lint.max_abs_coeff);
        ("unit_covering", Bool s.Lp.Lint.unit_covering);
      ])

let presolve_json (s : Lp.Presolve.summary) =
  Json.(
    Obj
      [
        ("rows_removed", Int s.Lp.Presolve.rows_removed);
        ("vars_fixed", Int s.Lp.Presolve.vars_fixed);
        ("bounds_stripped", Int s.Lp.Presolve.bounds_stripped);
        ("passes", Int s.Lp.Presolve.passes);
      ])

let cert_json (c : Lp.Struct.t) =
  let f = c.Lp.Struct.features in
  Json.(
    Obj
      [
        ("verdict", Str (Lp.Struct.verdict_name c));
        ( "witness",
          match c.Lp.Struct.verdict with
          | Lp.Struct.Integral w -> Str (Lp.Struct.witness_name w)
          | Lp.Struct.Fractional _ | Lp.Struct.Unknown -> Null );
        ("structural", Bool (Lp.Struct.structural c));
        ( "features",
          Obj
            (Lp.Struct.feature_fields f
            @ [
                ("root_lp", json_opt (fun v -> Float v) f.Lp.Struct.root_lp);
                ("root_fractional", json_opt (fun n -> Int n) f.Lp.Struct.root_fractional);
              ]) );
      ])

let pp_diags header ds =
  Printf.printf "%s:\n" header;
  if ds = [] then print_endline "  (none)"
  else List.iter (fun d -> Format.printf "  %a@." Lp.Lint.pp_diag d) ds

(* Exit-code contract shared by [lint] and [analyze]: 0 = clean (notes, and
   warnings without --strict, are tolerated), 1 = at least one error, or any
   warning under --strict, 2 = usage error (unparsable query). *)
let diag_exit ~strict ds =
  if Lp.Lint.errors ds <> [] then 1
  else if strict && List.exists (fun d -> d.Lp.Lint.severity = Lp.Lint.Warning) ds then 1
  else 0

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Exit 1 on warnings too, not only on errors")

(* The [--lint] pre-pass of the solving subcommands: diagnostics go to stderr
   so stdout stays the solver's. *)
let lint_to_stderr sem q db =
  List.iter
    (fun d -> Format.eprintf "%a@." Lp.Lint.pp_diag d)
    (Query_lint.lint_query sem q @ Query_lint.lint_instance sem q db)

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ] ~doc:"Print query/instance diagnostics (to stderr) before solving")

(* ----- telemetry ---------------------------------------------------------- *)

(* A telemetry output file: its directory must exist, so a bad path is a
   usage error (exit 124) before any work, not a [Sys_error] after it. *)
let out_file =
  let parse s =
    let dir = Filename.dirname s in
    if s = "" || (Sys.file_exists s && Sys.is_directory s) then
      Error (`Msg (Printf.sprintf "'%s' is not a file name" s))
    else if Sys.file_exists dir && Sys.is_directory dir then Ok s
    else Error (`Msg (Printf.sprintf "no '%s' directory" dir))
  in
  Arg.conv (parse, Format.pp_print_string)

let trace_arg =
  Arg.(
    value
    & opt (some out_file) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record solver telemetry and write a Chrome trace-event JSON to FILE (load in \
           Perfetto; one track per domain)")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print flat telemetry JSON (counters and per-span totals) to stdout after the \
           command's own output")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Arm the metrics plane for the command and print the Prometheus text exposition \
           (latency histograms over a fixed bucket ladder, gauges, counters) to stdout \
           after the command's own output")

let runlog_arg =
  Arg.(
    value
    & opt (some out_file) None
    & info [ "runlog" ] ~docv:"FILE"
        ~doc:
          "Append one JSON line per ILP solve to FILE: the structural feature vector, the \
           dispatch path taken (certified/relax/bb), and the observed cost — the training \
           corpus for the adaptive portfolio")

(* With [--trace]/[--stats] the whole command body runs under an installed
   sink and one top-level span, so the exported trace covers the command's
   wall time.  [--metrics] arms the metrics plane (without span buffering)
   and prints the Prometheus exposition at the end; [--runlog FILE] opens
   the solve run-log for the command's duration.  With none of the flags
   this is just [f ()] and every instrumented site in the solve stack stays
   a single atomic load. *)
let with_telemetry ?(metrics = false) ?(runlog = None) ~trace ~stats name f =
  if trace = None && (not stats) && (not metrics) && runlog = None then f ()
  else begin
    let sink = trace <> None || stats in
    if sink then Obs.Sink.install ();
    if metrics then Obs.Sink.arm_metrics ();
    (match runlog with Some path -> Obs.Runlog.enable path | None -> ());
    let code = if sink then Obs.Trace.with_span name f else f () in
    (match runlog with Some _ -> Obs.Runlog.disable () | None -> ());
    if sink then begin
      let spans = Obs.Trace.drain () in
      Obs.Sink.uninstall ();
      (match trace with Some path -> Obs.Export.chrome_to_file path spans | None -> ());
      if stats then print_endline (Obs.Export.stats_json spans)
    end;
    if metrics then begin
      print_string (Obs.Metrics.prometheus ());
      Obs.Sink.disarm_metrics ()
    end;
    code
  end

(* ----- classify --------------------------------------------------------- *)

let classify_cmd =
  let run query =
    let db = Database.create () in
    match parse_query db query with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok q ->
      List.iter
        (fun sem -> print_endline (Analysis.describe sem q))
        [ Problem.Set; Problem.Bag ];
      if Cq.self_join_free q then begin
        Array.iteri
          (fun i (a : Cq.atom) ->
            List.iter
              (fun sem ->
                let c = Analysis.rsp_complexity sem q ~t_atom:i in
                Printf.printf "RSP for tuples of %s under %s semantics: %s\n" a.Cq.rel
                  (match sem with Problem.Set -> "set" | Problem.Bag -> "bag")
                  (match c with
                  | Analysis.Ptime -> "PTIME"
                  | Analysis.Npc -> "NP-complete"
                  | Analysis.Unknown -> "open"))
              [ Problem.Set; Problem.Bag ])
          q.Cq.atoms
      end;
      0
  in
  let query = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "classify" ~doc:"Classify a conjunctive query's RES/RSP complexity (Table 1)")
    Term.(const run $ query)

(* ----- resilience ------------------------------------------------------- *)

let data_arg =
  Arg.(value & opt (some file) None & info [ "data"; "d" ] ~docv:"FILE" ~doc:"Instance file")

let bag_arg = Arg.(value & flag & info [ "bag" ] ~doc:"Bag semantics (multiplicities count)")

let exact_arg = Arg.(value & flag & info [ "exact" ] ~doc:"Exact rational arithmetic (slow)")

(* ----- lint -------------------------------------------------------------- *)

let lint_cmd =
  let run data bag strict json trace stats metrics query =
    with_telemetry ~metrics ~trace ~stats "resil.lint" @@ fun () ->
    let db = load_db data in
    match parse_query db query with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok q ->
      let sem = semantics_of_bag bag in
      let query_diags = Query_lint.lint_query sem q in
      let have_db = data <> None in
      let instance_diags = if have_db then Query_lint.lint_instance sem q db else [] in
      (* Model-level view: build ILP[RES*] and lint/presolve it without
         solving. *)
      let model_part =
        if not have_db then None
        else
          match Encode.res Encode.Ilp sem q db with
          | Encode.Trivial _ | Encode.Impossible -> None
          | Encode.Encoded enc ->
            let m = Lp.Frozen.of_model enc.Encode.model in
            let summary =
              match Lp.Presolve.presolve m with
              | Lp.Presolve.Reduced (_, vm) -> Some (Lp.Presolve.summary vm)
              | Lp.Presolve.Infeasible | Lp.Presolve.Unbounded -> None
            in
            Some (Lp.Lint.lint m, Lp.Lint.stats m, summary)
      in
      let model_diags = match model_part with Some (md, _, _) -> md | None -> [] in
      if json then
        print_json
          Json.(
            Obj
              [
                ("query", Str (Cq.to_string q));
                ("semantics", Str (if bag then "bag" else "set"));
                ( "diagnostics",
                  Obj
                    [
                      ("query", diags_json query_diags);
                      ("instance", diags_json instance_diags);
                      ("model", diags_json model_diags);
                    ] );
                ("model_stats", json_opt (fun (_, st, _) -> stats_json st) model_part);
                ( "presolve",
                  json_opt presolve_json (Option.bind model_part (fun (_, _, ps) -> ps)) );
              ])
      else begin
        Printf.printf "query: %s\n" (Cq.to_string q);
        pp_diags "query diagnostics" query_diags;
        if have_db then begin
          pp_diags "instance diagnostics" instance_diags;
          match model_part with
          | None -> print_endline "ILP[RES*] model: none (query trivial or no contingency)"
          | Some (_, st, summary) ->
            Printf.printf "ILP[RES*] model: %d vars (%d integer), %d rows, %d nonzeros%s\n"
              st.Lp.Lint.nvars st.Lp.Lint.integer_count st.Lp.Lint.nconstrs st.Lp.Lint.nnz
              (if st.Lp.Lint.unit_covering then ", unit covering" else "");
            pp_diags "model diagnostics" model_diags;
            (match summary with
            | Some s ->
              Printf.printf
                "presolve: %d rows removed, %d vars fixed, %d bounds stripped, %d passes\n"
                s.Lp.Presolve.rows_removed s.Lp.Presolve.vars_fixed
                s.Lp.Presolve.bounds_stripped s.Lp.Presolve.passes
            | None -> print_endline "presolve: model decided without solving")
        end
      end;
      diag_exit ~strict (query_diags @ instance_diags @ model_diags)
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output") in
  let query = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Lint a query (and, with $(b,--data), an instance): structural defects, dichotomy \
          advisories, ILP model diagnostics and the presolve summary. Exit codes: 0 clean, \
          1 any error (or any warning with $(b,--strict)), 2 unparsable query.")
    Term.(
      const run $ data_arg $ bag_arg $ strict_arg $ json $ trace_arg $ stats_arg
      $ metrics_arg $ query)

(* ----- analyze ------------------------------------------------------------ *)

let complexity_name = function
  | Analysis.Ptime -> "ptime"
  | Analysis.Npc -> "np-complete"
  | Analysis.Unknown -> "unknown"

let analyze_cmd =
  let run data bag strict json trace stats metrics query =
    with_telemetry ~metrics ~trace ~stats "resil.analyze" @@ fun () ->
    let db = load_db data in
    match parse_query db query with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok q ->
      let sem = semantics_of_bag bag in
      let have_db = data <> None in
      (* Cross-layer pass: dichotomy verdict vs matrix certificate. *)
      let vreport = if have_db then Some (Validate.validate sem q db) else None in
      let cert = Option.bind vreport (fun r -> r.Validate.cert) in
      let complexity =
        match vreport with
        | Some r -> r.Validate.complexity
        | None -> Analysis.res_complexity sem q
      in
      let query_diags = Validate.refine_query_diags cert (Query_lint.lint_query sem q) in
      let instance_diags = if have_db then Query_lint.lint_instance sem q db else [] in
      let model_part =
        if not have_db then None
        else
          match Encode.res Encode.Ilp sem q db with
          | Encode.Trivial _ | Encode.Impossible -> None
          | Encode.Encoded enc ->
            let m = Lp.Frozen.of_model enc.Encode.model in
            Some (Lp.Lint.lint m, Lp.Lint.stats m)
      in
      let model_diags = match model_part with Some (md, _) -> md | None -> [] in
      let vdiags = match vreport with Some r -> r.Validate.diags | None -> [] in
      (* One merged report in the shared (severity, code, message) order. *)
      let all = Lp.Lint.sort_diags (query_diags @ instance_diags @ model_diags @ vdiags) in
      if json then
        print_json
          Json.(
            Obj
              [
                ("query", Str (Cq.to_string q));
                ("semantics", Str (if bag then "bag" else "set"));
                ("complexity", Str (complexity_name complexity));
                ("dichotomy", Str (Analysis.describe sem q));
                ("certificate", json_opt cert_json cert);
                ("model_stats", json_opt (fun (_, st) -> stats_json st) model_part);
                ("diagnostics", diags_json all);
              ])
      else begin
        Printf.printf "query: %s\n" (Cq.to_string q);
        Printf.printf "dichotomy: %s\n" (Analysis.describe sem q);
        (match cert with
        | Some c -> Printf.printf "matrix: %s\n" (Lp.Struct.describe c)
        | None ->
          if have_db then
            print_endline "matrix: none (query trivial on the instance, or no contingency)"
          else print_endline "matrix: none (no --data instance given)");
        (match model_part with
        | Some (_, st) ->
          Printf.printf "model: %d vars (%d integer), %d rows, %d nonzeros%s\n"
            st.Lp.Lint.nvars st.Lp.Lint.integer_count st.Lp.Lint.nconstrs st.Lp.Lint.nnz
            (if st.Lp.Lint.unit_covering then ", unit covering" else "")
        | None -> ());
        pp_diags "diagnostics" all
      end;
      diag_exit ~strict all
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output") in
  let query = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Unified static report: query/instance/model diagnostics, the dichotomy verdict, \
          the matrix-structure integrality certificate, and their cross-layer consistency \
          (V-codes). Exit codes as for $(b,lint): 0 clean, 1 any error (or any warning \
          with $(b,--strict)), 2 unparsable query.")
    Term.(
      const run $ data_arg $ bag_arg $ strict_arg $ json $ trace_arg $ stats_arg
      $ metrics_arg $ query)

(* ----- solution enumeration (shared by resilience/responsibility) -------- *)

let all_arg =
  Arg.(
    value & flag
    & info [ "all-solutions" ]
        ~doc:
          "Enumerate $(i,every) minimum contingency set (warm no-good cut chain) and the \
           per-tuple criticality table, instead of one optimal set")

let nsets_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N"
        ~doc:
          "Report only the first N sets (implies $(b,--all-solutions)). Truncation is \
           presentation-level: the family is still enumerated and counted in full, so the \
           output is a prefix of the unlimited one.")

let diverse_arg =
  Arg.(
    value & flag
    & info [ "diverse" ]
        ~doc:
          "Reorder the family by greedy max-min symmetric difference before truncating, so \
           a $(b,-n) prefix spreads over the family instead of clustering")

(* A negative job count is a usage error (exit 124), not a crash in
   [Lp.Pool.create] or a silent sequential run. *)
let non_negative_int =
  let parse s =
    match Arg.(conv_parser int) s with
    | Ok n when n < 0 -> Error (`Msg (Printf.sprintf "expected a non-negative integer, got %d" n))
    | r -> r
  in
  Arg.conv (parse, Arg.(conv_printer int))

let jobs_arg =
  Arg.(
    value
    & opt non_negative_int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains to spread the solves over (0 = all recommended domains). The output is \
           identical for every N.")

(* The sets actually shown: optionally diversity-reordered, then the [-n]
   prefix.  The count always reports the full family. *)
let family_shown ~nsets ~diverse (fam : Enumerate.family) =
  let sets = if diverse then Enumerate.diverse fam.Enumerate.sets else fam.Enumerate.sets in
  match nsets with Some n -> Enumerate.take n sets | None -> sets

let family_json db ~nsets ~diverse fam =
  Answer.family db ~shown:(family_shown ~nsets ~diverse fam) fam

let print_family_text db ~nsets ~diverse label (fam : Enumerate.family) =
  let total = List.length fam.Enumerate.sets in
  Printf.printf "%s = %d  (%d minimum contingency set%s%s; %d cuts, %d solves)\n" label
    fam.Enumerate.opt total
    (if total = 1 then "" else "s")
    (if fam.Enumerate.exhausted then "" else ", family may be incomplete")
    fam.Enumerate.fstats.Enumerate.cuts fam.Enumerate.fstats.Enumerate.solves;
  let shown = family_shown ~nsets ~diverse fam in
  List.iteri
    (fun i s ->
      Printf.printf "set %d:\n" (i + 1);
      if s = [] then print_endline "  (empty set)" else pp_tuples db s)
    shown;
  if List.length shown < total then
    Printf.printf "  ... %d more set%s not shown\n"
      (total - List.length shown)
      (if total - List.length shown = 1 then "" else "s");
  (match Enumerate.criticality fam with
  | [] -> ()
  | crits ->
    Printf.printf "%-44s %9s %14s\n" "tuple" "in-sets" "criticality";
    List.iter
      (fun (c : Enumerate.criticality) ->
        Printf.printf "%-44s %4d/%-4d %14g  (= %s)\n"
          (Database_io.print_tuple db c.Enumerate.crit_tuple)
          c.Enumerate.crit_count c.Enumerate.crit_total c.Enumerate.crit_float
          (Numeric.Rat.to_string c.Enumerate.crit_exact))
      crits)

(* One answer outcome, printed as its {!Answer} JSON or as text ([text]
   for a solved answer, a fixed line otherwise); returns the exit code.  A
   false query is a success for resilience (its value is 0) and a failure
   for responsibility (there is nothing to explain). *)
let report ~json question answer_json text outcome =
  let res = question = Answer.Res in
  if json then print_json (Answer.outcome question answer_json outcome)
  else begin
    match outcome with
    | Solve.Solved a -> text a
    | Solve.Query_false ->
      print_endline
        (if res then "query is false on this instance (resilience 0)"
         else "query is false on this instance")
    | Solve.No_contingency ->
      print_endline
        (if res then "no contingency set exists (exogenous tuples block every option)"
         else "tuple cannot be made counterfactual")
    | Solve.Budget_exhausted _ -> print_endline "budget exhausted"
  end;
  match outcome with
  | Solve.Solved _ -> 0
  | Solve.Query_false -> if res then 0 else 1
  | Solve.No_contingency | Solve.Budget_exhausted _ -> 1

let json_answer_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print the answer as JSON: the object $(b,resil serve) returns as the question's \
           result (with $(b,--all-solutions), the enumerated family)")

let resilience_cmd =
  let run data bag exact lp lint all nsets diverse json jobs trace stats metrics runlog query =
    if lp && json then `Error (true, "--json cannot be combined with --lp")
    else
      `Ok
        ( with_telemetry ~metrics ~runlog ~trace ~stats "resil.resilience" @@ fun () ->
          let db = load_db data in
          match parse_query db query with
          | Error msg ->
            prerr_endline msg;
            1
          | Ok q ->
            let sem = semantics_of_bag bag in
            if lint then lint_to_stderr sem q db;
            if all || nsets <> None then
              report ~json Answer.Res (family_json db ~nsets ~diverse)
                (print_family_text db ~nsets ~diverse "RES*")
                (Solve.enumerate_resilience ~exact ~jobs sem q db)
            else if lp then begin
              match Solve.resilience_lp ~exact sem q db with
              | Some v ->
                Printf.printf "LP[RES*] = %g\n" v;
                0
              | None ->
                print_endline "LP[RES*]: no program (query false or no contingency)";
                1
            end
            else
              report ~json Answer.Res (Answer.res db)
                (fun a ->
                  Printf.printf "RES* = %d  (root LP %g, %s, %d nodes%s)\n" a.Solve.res_value
                    a.Solve.res_stats.Solve.root_lp
                    (if a.Solve.res_stats.Solve.root_integral then "integral" else "fractional")
                    a.Solve.res_stats.Solve.nodes
                    (if a.Solve.res_stats.Solve.certified then ", certified" else "");
                  print_endline "contingency set:";
                  pp_tuples db a.Solve.contingency)
                (Solve.resilience ~exact sem q db) )
  in
  let lp =
    Arg.(
      value & flag
      & info [ "lp" ] ~doc:"Solve the LP relaxation only (text output: not with $(b,--json))")
  in
  let query = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "resilience" ~doc:"Minimum tuple deletions falsifying the query (ILP[RES*])")
    Term.(
      ret
        (const run $ data_arg $ bag_arg $ exact_arg $ lp $ lint_arg $ all_arg $ nsets_arg
        $ diverse_arg $ json_answer_arg $ jobs_arg $ trace_arg $ stats_arg $ metrics_arg
        $ runlog_arg $ query))

(* ----- responsibility --------------------------------------------------- *)

let responsibility_cmd =
  let run data bag exact lint all nsets diverse json jobs trace stats metrics runlog tuple query =
    with_telemetry ~metrics ~runlog ~trace ~stats "resil.responsibility" @@ fun () ->
    let db = load_db data in
    match parse_query db query with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok q -> (
      let tid =
        match Database_io.parse_line db tuple with
        | Some tid ->
          (* parse_line inserted a copy; undo the multiplicity bump if it
             already existed, or remove it if it did not. *)
          let info = Database.tuple db tid in
          if info.Database.mult > 1 then Database.set_mult db tid (info.Database.mult - 1)
          else Database.remove db tid;
          Database.find db info.Database.rel info.Database.args
        | None -> None
      in
      match tid with
      | None ->
        prerr_endline "responsibility tuple not found in the instance";
        1
      | Some tid ->
        let sem = semantics_of_bag bag in
        if lint then lint_to_stderr sem q db;
        if all || nsets <> None then
          report ~json Answer.Rsp (family_json db ~nsets ~diverse)
            (print_family_text db ~nsets ~diverse "RSP*")
            (Solve.enumerate_responsibility ~exact ~jobs sem q db tid)
        else
          report ~json Answer.Rsp (Answer.rsp db)
            (fun a ->
              Printf.printf "RSP* = %d  (responsibility %g)\n" a.Solve.rsp_value
                (1.0 /. (1.0 +. float_of_int a.Solve.rsp_value));
              print_endline "contingency set:";
              pp_tuples db a.Solve.responsibility_set)
            (Solve.responsibility ~exact sem q db tid))
  in
  let tuple =
    Arg.(
      required
      & opt (some string) None
      & info [ "tuple"; "t" ] ~docv:"TUPLE" ~doc:"Responsibility tuple, e.g. \"S(1,1)\"")
  in
  let query = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "responsibility"
       ~doc:"Minimum contingency set making a tuple counterfactual (ILP[RSP*])")
    Term.(
      const run $ data_arg $ bag_arg $ exact_arg $ lint_arg $ all_arg $ nsets_arg
      $ diverse_arg $ json_answer_arg $ jobs_arg $ trace_arg $ stats_arg $ metrics_arg
      $ runlog_arg $ tuple $ query)

(* ----- rank -------------------------------------------------------------- *)

let rank_cmd =
  let run data bag exact lint all json jobs trace stats metrics runlog query =
    with_telemetry ~metrics ~runlog ~trace ~stats "resil.rank" @@ fun () ->
    let db = load_db data in
    match parse_query db query with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok q ->
      let sem = semantics_of_bag bag in
      if lint then lint_to_stderr sem q db;
      (* One session: witnesses, encoding and freezing are paid once, and
         every tuple's ILP[RSP*] is a warm-started delta-solve — spread
         over [jobs] domains when asked (output is identical). *)
      let session = Session.create ~exact sem q db in
      (* Always the pool path — at [jobs = 1] it degenerates to the
         sequential loop but emits the same telemetry shape, so --stats
         output is schema-identical for every N. *)
      let ranked = Session.ranking ~jobs session in
      (* [--all-solutions]: also enumerate the resilience family on the same
         session and grade each ranked tuple by criticality — the fraction
         of minimum contingency sets it appears in. *)
      let crit_of =
        if not all then fun _ -> None
        else begin
          let tbl = Hashtbl.create 16 in
          (match Session.enumerate_resilience ~jobs session with
          | Session.Solved fam ->
            List.iter
              (fun (c : Enumerate.criticality) ->
                Hashtbl.replace tbl c.Enumerate.crit_tuple c.Enumerate.crit_float)
              (Enumerate.criticality fam)
          | Session.Query_false | Session.No_contingency | Session.Budget_exhausted _ ->
            ());
          fun tid -> Some (Option.value (Hashtbl.find_opt tbl tid) ~default:0.)
        end
      in
      if json then begin
        print_json
          (Json.List
             (List.map
                (fun ((tid, _, _) as r) -> Answer.rank_row db ?criticality:(crit_of tid) r)
                ranked));
        0
      end
      else begin
        match ranked with
        | [] ->
          print_endline "no rankable tuples (query false, or no endogenous witness tuple)";
          1
        | ranked ->
          if all then begin
            Printf.printf "%-44s %5s %14s %14s\n" "tuple" "k" "responsibility" "criticality";
            List.iter
              (fun (tid, k, rho) ->
                Printf.printf "%-44s %5d %14g %14g\n" (Database_io.print_tuple db tid) k rho
                  (Option.value (crit_of tid) ~default:0.))
              ranked
          end
          else begin
            Printf.printf "%-44s %5s %14s\n" "tuple" "k" "responsibility";
            List.iter
              (fun (tid, k, rho) ->
                Printf.printf "%-44s %5d %14g\n" (Database_io.print_tuple db tid) k rho)
              ranked
          end;
          0
      end
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output") in
  let query = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "rank"
       ~doc:
         "Rank every endogenous tuple by responsibility for the query answer (minimal \
          contingency size k, responsibility 1/(1+k), best first), batched through one \
          warm-started solve session. With $(b,--all-solutions), also enumerate the \
          resilience family and add each tuple's criticality (fraction of minimum \
          contingency sets containing it).")
    Term.(
      const run $ data_arg $ bag_arg $ exact_arg $ lint_arg $ all_arg $ json $ jobs_arg
      $ trace_arg $ stats_arg $ metrics_arg $ runlog_arg $ query)

(* ----- explain ----------------------------------------------------------- *)

let explain_cmd =
  let run data bag query =
    let db = load_db data in
    match parse_query db query with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok q ->
      let sem = semantics_of_bag bag in
      print_string (Instance.explain sem q db);
      (match Relalg.Provenance.read_once q db with
      | Some e ->
        Format.printf "instance: read-once provenance factorization:@.  %a@."
          (Relalg.Provenance.pp ~db) e
      | None -> ());
      0
  in
  let query = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain an instance: dichotomy verdict plus data-level structure (read-once \
          provenance, functional dependencies, induced rewrites) that predicts easy solving")
    Term.(const run $ data_arg $ bag_arg $ query)

(* ----- certificate ------------------------------------------------------ *)

let certificate_cmd =
  let run domain generators query =
    let db = Database.create () in
    match parse_query db query with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok q -> (
      let config = { Ijp.Search.default_config with domain; max_generators = generators } in
      match Ijp.Search.find ~config q with
      | Some (jp, stats) ->
        Printf.printf "NP-completeness certificate found in %.2fs (%d candidates):\n\n"
          stats.Ijp.Search.elapsed stats.Ijp.Search.candidates;
        Format.printf "%a@." Ijp.Join_path.pp jp;
        0
      | None ->
        Printf.printf
          "no IJP certificate with domain %d and <= %d generator witnesses (proves nothing)\n"
          domain generators;
        1)
  in
  let domain =
    Arg.(value & opt int 5 & info [ "domain" ] ~docv:"D" ~doc:"Constants range over 1..D")
  in
  let generators =
    Arg.(value & opt int 4 & info [ "generators" ] ~docv:"K" ~doc:"Max generator witnesses")
  in
  let query = Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY") in
  Cmd.v
    (Cmd.info "certificate"
       ~doc:"Search for an Independent Join Path proving RES(Q) NP-complete (Section 7)")
    Term.(const run $ domain $ generators $ query)

(* ----- fuzz -------------------------------------------------------------- *)

let fuzz_disc_json (d : Check.Fuzz.discrepancy) =
  Json.(
    Obj
      [
        ("oracle", Str d.Check.Fuzz.oracle);
        ("profile", Str d.Check.Fuzz.case.Check.Gen.profile);
        ("case_seed", Int d.Check.Fuzz.case.Check.Gen.seed);
        ("message", Str d.Check.Fuzz.message);
        ("saved", json_opt (fun p -> Str p) d.Check.Fuzz.saved);
      ])

let fuzz_cmd =
  let run seconds instances seed oracle_names json corpus no_shrink replay trace stats metrics =
    with_telemetry ~metrics ~trace ~stats "resil.fuzz" @@ fun () ->
    if List.exists (fun n -> n = "help" || n = "list") oracle_names then begin
      List.iter
        (fun (o : Check.Oracle.t) ->
          Printf.printf "%-20s %s\n" o.Check.Oracle.name o.Check.Oracle.descr)
        Check.Oracle.all;
      0
    end
    else if replay then begin
      let dir = Option.value corpus ~default:"examples/fuzz-corpus" in
      let results = Check.Fuzz.replay_corpus ~dir in
      let failing =
        List.filter
          (fun r ->
            match r.Check.Fuzz.verdict with Check.Oracle.Fail _ -> true | Check.Oracle.Pass -> false)
          results
      in
      if json then begin
        let row (r : Check.Fuzz.replay_result) =
          let status, message =
            match r.Check.Fuzz.verdict with
            | Check.Oracle.Pass -> ("pass", Json.Null)
            | Check.Oracle.Fail m -> ("fail", Json.Str m)
          in
          Json.(
            Obj
              [
                ("file", Str r.Check.Fuzz.path);
                ("oracle", Str r.Check.Fuzz.entry.Check.Corpus.oracle);
                ("status", Str status);
                ("message", message);
              ])
        in
        print_json
          Json.(
            Obj
              [
                ("corpus", Str dir);
                ("files", Int (List.length results));
                ("failing", Int (List.length failing));
                ("results", List (List.map row results));
              ])
      end
      else begin
        List.iter
          (fun (r : Check.Fuzz.replay_result) ->
            match r.Check.Fuzz.verdict with
            | Check.Oracle.Pass -> Printf.printf "ok   %s\n" r.Check.Fuzz.path
            | Check.Oracle.Fail m -> Printf.printf "FAIL %s\n     %s\n" r.Check.Fuzz.path m)
          results;
        Printf.printf "%d corpus file(s), %d failing\n" (List.length results) (List.length failing)
      end;
      if failing = [] then 0 else 1
    end
    else begin
      match Check.Oracle.select oracle_names with
      | Error name ->
        Printf.eprintf "unknown oracle %S (try --oracle help)\n" name;
        2
      | Ok selected ->
        let oracles = if selected = [] then Check.Oracle.all else selected in
        let report =
          Check.Fuzz.run ?seconds ?instances ~oracles ?corpus_dir:corpus
            ~shrink:(not no_shrink) ~seed ()
        in
        let ndisc = List.length report.Check.Fuzz.discrepancies in
        if json then
          print_json
            Json.(
              Obj
                [
                  ("seed", Int seed);
                  ("instances", Int report.Check.Fuzz.instances);
                  ("checks", Int report.Check.Fuzz.checks);
                  ("discrepancies", Int ndisc);
                  ("elapsed", Float report.Check.Fuzz.elapsed);
                  ("failures", List (List.map fuzz_disc_json report.Check.Fuzz.discrepancies));
                ])
        else begin
          List.iter
            (fun (d : Check.Fuzz.discrepancy) ->
              Printf.printf "DISCREPANCY [%s] %s\n" d.Check.Fuzz.oracle d.Check.Fuzz.message;
              (match d.Check.Fuzz.saved with
              | Some p -> Printf.printf "  saved: %s\n" p
              | None -> ());
              print_string
                (Check.Corpus.to_string
                   {
                     Check.Corpus.oracle = d.Check.Fuzz.oracle;
                     message = d.Check.Fuzz.message;
                     case = d.Check.Fuzz.case;
                   }))
            report.Check.Fuzz.discrepancies;
          Printf.printf "fuzz: seed %d, %d instance(s), %d check(s), %d discrepancy(ies), %.1fs\n"
            seed report.Check.Fuzz.instances report.Check.Fuzz.checks ndisc
            report.Check.Fuzz.elapsed
        end;
        if ndisc = 0 then 0 else 1
    end
  in
  let seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"S" ~doc:"Stop after S seconds of wall clock")
  in
  let instances =
    Arg.(
      value
      & opt (some int) None
      & info [ "instances"; "n" ] ~docv:"N"
          ~doc:"Stop after N generated cases (default 100 when no budget is given)")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Run seed. The case stream is a pure function of the seed: rerunning with the \
                same seed replays the identical stream.")
  in
  let oracle_names =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:"Restrict to the named oracle (repeatable; default all). $(b,--oracle help) \
                lists the matrix.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output") in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Persist shrunk counterexamples under DIR (and the default directory for \
                $(b,--replay): examples/fuzz-corpus)")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report raw counterexamples, unshrunk")
  in
  let replay =
    Arg.(
      value & flag
      & info [ "replay" ] ~doc:"Re-check every stored counterexample instead of fuzzing")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate adversarial random cases and cross-check every \
          solver path against independent oracles (float vs exact, warm vs cold, solved \
          encoding vs its presolved reduction, ILP vs brute force, parallel vs sequential, LP/flow/ILP sandwich). \
          Discrepancies are shrunk to minimal repros. Exits 1 if any discrepancy is found.")
    Term.(
      const run $ seconds $ instances $ seed $ oracle_names $ json $ corpus $ no_shrink $ replay
      $ trace_arg $ stats_arg $ metrics_arg)

(* ----- serve -------------------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

(* One connected client: its fd plus the bytes of an incomplete line. *)
type serve_client = { cfd : Unix.file_descr; cbuf : Buffer.t }

(* Atomic-rename write of the Prometheus exposition, so a scraper never
   reads a torn file. *)
let write_metrics_file path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Obs.Metrics.prometheus ());
  close_out oc;
  Sys.rename tmp path

(* Answer every complete line buffered for the client; keep the partial
   tail.  Also used after shutdown to drain requests that were already on
   the wire.  [received_at] is the transport's read stamp: all lines of
   this buffer arrived in the read that triggered us, so the gap to each
   dispatch is genuine queueing (earlier requests of the same burst). *)
let serve_process engine c =
  let received_at = Obs.Clock.now () in
  let data = Buffer.contents c.cbuf in
  Buffer.clear c.cbuf;
  let rec go start =
    if start <= String.length data then
      match String.index_from_opt data start '\n' with
      | Some i ->
        let stop = if i > start && data.[i - 1] = '\r' then i - 1 else i in
        let line = String.sub data start (stop - start) in
        write_all c.cfd (Serve.Engine.handle_line ~received_at engine line ^ "\n");
        go (i + 1)
      | None -> Buffer.add_substring c.cbuf data start (String.length data - start)
  in
  go 0

(* [tick] runs once per loop iteration (each accepted line on stdio, each
   select wakeup on sockets): the periodic metrics-file writer. *)
let serve_stdio engine ~tick =
  (try
     while not (Serve.Engine.stopping engine) do
       let line = input_line stdin in
       let received_at = Obs.Clock.now () in
       print_string (Serve.Engine.handle_line ~received_at engine line);
       print_newline ();
       flush stdout;
       tick ()
     done
   with End_of_file -> ());
  0

let serve_socket engine ~tick listen_fd cleanup =
  let clients = ref [] in
  let close_client c =
    (try Unix.close c.cfd with Unix.Unix_error _ -> ());
    clients := List.filter (fun c' -> c' != c) !clients
  in
  (* The handler body is one atomic store — async-signal-safe; the loop
     notices on its next select tick (<= 0.2s) and drains. *)
  List.iter
    (fun s ->
      Sys.set_signal s (Sys.Signal_handle (fun _ -> Serve.Engine.request_stop engine)))
    [ Sys.sigint; Sys.sigterm ];
  let scratch = Bytes.create 4096 in
  while not (Serve.Engine.stopping engine) do
    tick ();
    let fds = listen_fd :: List.map (fun c -> c.cfd) !clients in
    match Unix.select fds [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun fd ->
          if fd = listen_fd then begin
            match Unix.accept fd with
            | cfd, _ -> clients := { cfd; cbuf = Buffer.create 256 } :: !clients
            | exception Unix.Unix_error _ -> ()
          end
          else
            match List.find_opt (fun c -> c.cfd = fd) !clients with
            | None -> ()
            | Some c -> (
              match Unix.read fd scratch 0 (Bytes.length scratch) with
              | 0 -> close_client c
              | n ->
                Buffer.add_subbytes c.cbuf scratch 0 n;
                serve_process engine c;
                (* A partial line beyond the payload cap can never become a
                   valid request: answer too_large and drop the client. *)
                if Buffer.length c.cbuf > Serve.Engine.max_line engine then begin
                  write_all c.cfd
                    (Serve.Engine.handle_line engine (Buffer.contents c.cbuf) ^ "\n");
                  close_client c
                end
              | exception Unix.Unix_error _ -> close_client c))
        ready
  done;
  (* Graceful drain: requests already received in full are answered before
     the sockets close (batches drain inside the engine too). *)
  List.iter
    (fun c ->
      serve_process engine c;
      try Unix.close c.cfd with Unix.Unix_error _ -> ())
    !clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  cleanup ();
  0

let serve_cmd =
  let run stdio socket port data max_sessions max_line trace stats metrics runlog
      metrics_file metrics_every recorder_file =
    with_telemetry ~metrics ~runlog ~trace ~stats "resil.serve" @@ fun () ->
    let engine = Serve.Engine.create ~max_sessions ~max_line () in
    (* Periodic metrics-file writer, driven by the transport loop; plus a
       final write and the flight-recorder dump on the way out, so a
       post-mortem always has the last state. *)
    let tick =
      match metrics_file with
      | None -> fun () -> ()
      | Some path ->
        let last = ref (Unix.gettimeofday ()) in
        fun () ->
          let now = Unix.gettimeofday () in
          if now -. !last >= metrics_every then begin
            last := now;
            write_metrics_file path
          end
    in
    let finish code =
      (match metrics_file with Some path -> write_metrics_file path | None -> ());
      (match recorder_file with
      | Some path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Serve.Engine.recorder_json ());
            output_char oc '\n')
      | None -> ());
      code
    in
    let preload_failed =
      match data with
      | None -> false
      | Some path -> (
        let ic = open_in_bin path in
        let contents = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let resp =
          Serve.Engine.handle_line engine
            (Json.to_string (Json.Obj [ ("op", Json.Str "load"); ("data", Json.Str contents) ]))
        in
        match Json.(member "ok" (of_string resp)) with
        | Some (Json.Bool true) -> false
        | _ ->
          Printf.eprintf "serve: preload failed: %s\n" resp;
          true)
    in
    if preload_failed then finish 1
    else if stdio then finish (serve_stdio engine ~tick)
    else
      match (socket, port) with
      | Some path, _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 16;
        Printf.eprintf "resil serve: listening on %s\n%!" path;
        finish
          (serve_socket engine ~tick fd (fun () ->
               try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()))
      | None, Some p ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
        Unix.listen fd 16;
        Printf.eprintf "resil serve: listening on 127.0.0.1:%d\n%!" p;
        finish (serve_socket engine ~tick fd (fun () -> ()))
      | None, None ->
        prerr_endline "serve: pass --stdio, --socket PATH, or --port N";
        124
  in
  let stdio =
    Arg.(value & flag & info [ "stdio" ] ~doc:"Serve on stdin/stdout (one JSON line each way)")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix domain socket at PATH")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"N" ~doc:"Listen on TCP 127.0.0.1:N")
  in
  let max_sessions =
    Arg.(
      value
      & opt int 8
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Cached incremental solve sessions kept alive (LRU eviction beyond N)")
  in
  let max_line =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:"Reject request lines larger than BYTES with the too_large error")
  in
  let metrics_file =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "metrics-file" ] ~docv:"FILE"
          ~doc:
            "Write the Prometheus text exposition to FILE (atomic rename) every \
             $(b,--metrics-every) seconds and once more at exit — a scrape target that \
             needs no HTTP endpoint")
  in
  let metrics_every =
    Arg.(
      value
      & opt float 10.
      & info [ "metrics-every" ] ~docv:"S"
          ~doc:"Seconds between $(b,--metrics-file) writes (default 10)")
  in
  let recorder_file =
    Arg.(
      value
      & opt (some out_file) None
      & info [ "recorder-file" ] ~docv:"FILE"
          ~doc:
            "Dump the flight recorder (the last events of every domain) as JSON to FILE at \
             exit — the post-mortem after a timeout, error or signal")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived resilience service speaking line-oriented JSON over stdio, a Unix \
          socket, or loopback TCP. Sessions are cached per query over one shared database \
          and maintained incrementally under tuple inserts/deletes; SIGINT/SIGTERM or the \
          shutdown op drain in-flight requests before exit. Try: echo \
          '{\"op\":\"ping\"}' | resil serve --stdio")
    Term.(
      const run $ stdio $ socket $ port $ data_arg $ max_sessions $ max_line $ trace_arg
      $ stats_arg $ metrics_arg $ runlog_arg $ metrics_file $ metrics_every $ recorder_file)

let () =
  let doc = "resilience and causal responsibility via ILP (SIGMOD 2023 reproduction)" in
  let info = Cmd.info "resil" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            classify_cmd;
            lint_cmd;
            analyze_cmd;
            resilience_cmd;
            responsibility_cmd;
            rank_cmd;
            explain_cmd;
            certificate_cmd;
            fuzz_cmd;
            serve_cmd;
          ]))
