(* Experiment harness: one sub-command per table/figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).  Each experiment
   prints the series the corresponding plot draws — solve time and objective
   per method over logarithmically growing instances.

     dune exec bench/main.exe                 # all experiments, default scale
     dune exec bench/main.exe -- setting1 --scale 2.0
     dune exec bench/main.exe -- certificates

   Sizes are laptop-scale versions of the paper's sweeps (DESIGN.md §1,
   substitution 4); --scale grows or shrinks them. *)

open Cmdliner
open Relalg
open Resilience

let set = Problem.Set
let bag = Problem.Bag

(* ---- small measurement toolkit ------------------------------------------- *)

let time f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.elapsed t0)

let fmt_time t = if t < 0.0005 then "<1ms" else Printf.sprintf "%.3fs" t

let fmt_opt = function Some v -> string_of_int v | None -> "-"

let header title cols =
  Printf.printf "\n== %s ==\n%!" title;
  print_endline (String.concat "\t" cols)

let row cells =
  print_endline (String.concat "\t" cells);
  flush stdout

let no_stats nodes =
  {
    Solve.nodes;
    root_lp = nan;
    root_integral = false;
    certified = false;
    solve_time = nan;
    prep_time = nan;
    pivots = 0;
    refactors = 0;
  }

let res_outcome = function
  | Solve.Solved a -> (Some a.Solve.res_value, a.Solve.res_stats)
  | Solve.Budget_exhausted v -> (v, no_stats (-1))
  | Solve.Query_false | Solve.No_contingency -> (None, no_stats 0)

let rsp_outcome = function
  | Solve.Solved a -> Some a.Solve.rsp_value
  | Solve.Budget_exhausted v -> v
  | Solve.Query_false | Solve.No_contingency -> None

(* ---- Table 1 -------------------------------------------------------------- *)

let run_table1 () =
  header "Table 1: complexity of RES and RSP for SJ-free CQs"
    [ "query"; "definition"; "RES/set"; "RES/bag"; "RSP/set"; "RSP/bag" ];
  let show c =
    match c with Analysis.Ptime -> "PTIME" | Analysis.Npc -> "NPC" | Analysis.Unknown -> "open"
  in
  let rsp_summary sem q =
    (* the dichotomy is per responsibility atom; summarise the range *)
    let cs =
      List.init (Array.length q.Cq.atoms) (fun i -> Analysis.rsp_complexity sem q ~t_atom:i)
      |> List.sort_uniq compare
    in
    match cs with
    | [ c ] -> show c
    | cs -> String.concat "/" (List.map show cs) ^ " (by atom)"
  in
  List.iter
    (fun (name, q) ->
      if Cq.self_join_free q then
        row
          [
            name;
            Cq.to_string q;
            show (Analysis.res_complexity set q);
            show (Analysis.res_complexity bag q);
            rsp_summary set q;
            rsp_summary bag q;
          ]
      else
        row
          [
            name;
            Cq.to_string q;
            show (Analysis.res_complexity set q) ^ " (self-join)";
            show (Analysis.res_complexity bag q) ^ " (self-join)";
            "-";
            "-";
          ])
    (Queries.all_named ())

(* ---- Setting 1 (Fig. 5): hard 3-star, RES under set semantics -------------- *)

let run_setting1 scale =
  let q = Queries.q3_star () in
  header "Setting 1 (Fig. 5): RES of the hard 3-star query, set semantics"
    [
      "witnesses"; "ILP"; "t_ILP"; "ILP(5s)"; "LP"; "t_LP"; "LP-UB"; "Flow-CT"; "t_CT"; "Flow-CW";
      "t_CW"; "UB/opt"; "CT/opt"; "CW/opt";
    ];
  let rng = Random.State.make [| 101 |] in
  let base = int_of_float (600.0 *. scale) in
  let specs =
    [
      { Datagen.Random_inst.rel = "R"; arity = 1; count = base / 8 };
      { rel = "S"; arity = 1; count = base / 8 };
      { rel = "T"; arity = 1; count = base / 8 };
      { rel = "W"; arity = 3; count = base };
    ]
  in
  let pool = Datagen.Random_inst.pool rng ~domain:(max 3 (base / 6)) specs in
  List.iter
    (fun frac ->
      let db = Datagen.Random_inst.prefix_db pool ~frac in
      let witnesses = Eval.count q db in
      if witnesses > 0 then begin
        let ilp, t_ilp = time (fun () -> Solve.resilience ~time_limit:30.0 set q db) in
        let ilp_v, _ = res_outcome ilp in
        let budget, _ = time (fun () -> Solve.resilience ~time_limit:5.0 set q db) in
        let budget_v, _ = res_outcome budget in
        let lp, t_lp = time (fun () -> Solve.resilience_lp set q db) in
        let lp_ub, _ = time (fun () -> Approx.lp_rounding_res set q db) in
        let ct, t_ct = time (fun () -> Approx.flow_ct_res set q db) in
        let cw, t_cw = time (fun () -> Approx.flow_cw_res set q db) in
        let av = function Some { Approx.value; _ } -> Some value | None -> None in
        (* the paper's bottom plots: approximation quality relative to the
           optimum *)
        let ratio approx =
          match (approx, ilp_v) with
          | Some a, Some opt when opt > 0 -> Printf.sprintf "%.2f" (float_of_int a /. float_of_int opt)
          | _ -> "-"
        in
        row
          [
            string_of_int witnesses;
            fmt_opt ilp_v;
            fmt_time t_ilp;
            fmt_opt budget_v;
            (match lp with Some v -> Printf.sprintf "%.2f" v | None -> "-");
            fmt_time t_lp;
            fmt_opt (av lp_ub);
            fmt_opt (av ct);
            fmt_time t_ct;
            fmt_opt (av cw);
            fmt_time t_cw;
            ratio (av lp_ub);
            ratio (av ct);
            ratio (av cw);
          ]
      end)
    (Datagen.Random_inst.log_fractions 7)

(* ---- Setting 2 (Fig. 6): TPC-H-shaped data -------------------------------- *)

let run_setting2 scale =
  let rng = Random.State.make [| 202 |] in
  let sfs = Datagen.Tpch.scale_factors ~from_sf:0.01 ~to_sf:(0.12 *. scale) 6 in
  header "Setting 2a (Fig. 6a): RSP on the 5-chain over TPC-H-shaped data (PTIME query)"
    [ "witnesses"; "ILP"; "t_ILP"; "MILP"; "t_MILP"; "LP"; "t_LP"; "Flow"; "t_Flow" ];
  let q5 = Queries.q_tpch_5chain () in
  List.iter
    (fun sf ->
      let db = Datagen.Tpch.generate rng ~scale:sf in
      match Datagen.Tpch.responsibility_target db with
      | None -> ()
      | Some t ->
        let witnesses = Eval.count q5 db in
        if witnesses > 0 then begin
          let ilp, t_ilp = time (fun () -> Solve.responsibility ~time_limit:30.0 set q5 db t) in
          let milp, t_milp =
            time (fun () ->
                Solve.responsibility ~relaxation:Encode.Milp ~time_limit:30.0 set q5 db t)
          in
          let lp, t_lp = time (fun () -> Solve.responsibility_lp set q5 db t) in
          let flow, t_flow = time (fun () -> Solve.responsibility_flow set q5 db t) in
          let flow_v =
            match flow with Some (Solve.Solved a) -> Some a.Solve.rsp_value | _ -> None
          in
          row
            [
              string_of_int witnesses;
              fmt_opt (rsp_outcome ilp);
              fmt_time t_ilp;
              fmt_opt (rsp_outcome milp);
              fmt_time t_milp;
              (match lp with Some v -> Printf.sprintf "%.2f" v | None -> "-");
              fmt_time t_lp;
              fmt_opt flow_v;
              fmt_time t_flow;
            ]
        end)
    sfs;
  header
    "Setting 2b (Fig. 6b): RES on the 5-cycle over TPC-H-shaped data (NPC query, easy data via FDs)"
    [ "witnesses"; "ILP"; "t_ILP"; "nodes"; "root_integral"; "LP"; "t_LP"; "fd_rewrite" ];
  let qc = Queries.q_tpch_5cycle () in
  List.iter
    (fun sf ->
      let db = Datagen.Tpch.generate rng ~scale:sf in
      let witnesses = Eval.count qc db in
      if witnesses > 0 then begin
        let ilp, t_ilp = time (fun () -> Solve.resilience ~time_limit:30.0 set qc db) in
        let ilp_v, stats = res_outcome ilp in
        let lp, t_lp = time (fun () -> Solve.resilience_lp set qc db) in
        (* Theorem J.2: the induced rewrite under the data's FDs predicts the
           observed PTIME behaviour. *)
        let rewrite_verdict =
          match Analysis.res_complexity set (Instance.induced_rewrite qc (Instance.var_fds qc db)) with
          | Analysis.Ptime -> "PTIME"
          | Analysis.Npc -> "NPC"
          | Analysis.Unknown -> "open"
        in
        row
          [
            string_of_int witnesses;
            fmt_opt ilp_v;
            fmt_time t_ilp;
            string_of_int stats.Solve.nodes;
            string_of_bool stats.Solve.root_integral;
            (match lp with Some v -> Printf.sprintf "%.2f" v | None -> "-");
            fmt_time t_lp;
            rewrite_verdict;
          ]
      end)
    (Datagen.Tpch.scale_factors ~from_sf:0.05 ~to_sf:(1.0 *. scale) 6)

(* ---- Setting 3 (Fig. 7): self-joins under bag semantics -------------------- *)

let run_setting3 scale =
  let rng = Random.State.make [| 303 |] in
  let run name q specs domain =
    header
      (Printf.sprintf "Setting 3 (Fig. 7): %s under bag semantics" name)
      [ "witnesses"; "ILP"; "t_ILP"; "ILP(5s)"; "LP"; "t_LP"; "LP-UB"; "nodes"; "root_integral" ];
    let pool = Datagen.Random_inst.pool rng ~domain ~max_bag:4 specs in
    List.iter
      (fun frac ->
        let db = Datagen.Random_inst.prefix_db pool ~frac in
        let witnesses = Eval.count q db in
        if witnesses > 0 then begin
          let ilp, t_ilp = time (fun () -> Solve.resilience ~time_limit:30.0 bag q db) in
          let ilp_v, stats = res_outcome ilp in
          let budget, _ = time (fun () -> Solve.resilience ~time_limit:5.0 bag q db) in
          let budget_v, _ = res_outcome budget in
          let lp, t_lp = time (fun () -> Solve.resilience_lp bag q db) in
          let lp_ub, _ = time (fun () -> Approx.lp_rounding_res bag q db) in
          let av = function Some { Approx.value; _ } -> Some value | None -> None in
          row
            [
              string_of_int witnesses;
              fmt_opt ilp_v;
              fmt_time t_ilp;
              fmt_opt budget_v;
              (match lp with Some v -> Printf.sprintf "%.2f" v | None -> "-");
              fmt_time t_lp;
              fmt_opt (av lp_ub);
              string_of_int stats.Solve.nodes;
              string_of_bool stats.Solve.root_integral;
            ]
        end)
      (Datagen.Random_inst.log_fractions 6)
  in
  let base = int_of_float (500.0 *. scale) in
  run "SJ-conf (easy): R(x,y), R(x,z), A(x), C(z)" (Queries.q_conf_sj ())
    [
      { Datagen.Random_inst.rel = "R"; arity = 2; count = base };
      { rel = "A"; arity = 1; count = base / 6 };
      { rel = "C"; arity = 1; count = base / 6 };
    ]
    (max 4 (base / 12));
  (* the hard chain's witness count grows quadratically in |R|; a smaller
     base keeps the top point around ~2.5k witnesses, where the blow-up is
     already unmistakable *)
  run "SJ-chain (hard): R(x,y), R(y,z)" (Queries.q2_chain_sj ())
    [ { Datagen.Random_inst.rel = "R"; arity = 2; count = (6 * base) / 10 } ]
    (max 4 (base / 16))

(* ---- Setting 4 (Fig. 13): Q triangle-unary, set vs bag --------------------- *)

let run_setting4 scale =
  let q = Queries.q_triangle_a () in
  let rng = Random.State.make [| 404 |] in
  let base = int_of_float (400.0 *. scale) in
  let specs =
    [
      { Datagen.Random_inst.rel = "A"; arity = 1; count = base / 6 };
      { rel = "R"; arity = 2; count = base };
      { rel = "S"; arity = 2; count = base };
      { rel = "T"; arity = 2; count = base };
    ]
  in
  List.iter
    (fun (sem, max_bag, label) ->
      header
        (Printf.sprintf "Setting 4 (Fig. 13): RES of QtriangleA under %s semantics" label)
        [ "witnesses"; "ILP"; "t_ILP"; "LP"; "t_LP"; "LP=ILP"; "Flow-CW"; "nodes" ];
      let pool = Datagen.Random_inst.pool rng ~domain:(max 4 (base / 10)) ~max_bag specs in
      List.iter
        (fun frac ->
          let db = Datagen.Random_inst.prefix_db pool ~frac in
          let witnesses = Eval.count q db in
          if witnesses > 0 then begin
            let ilp, t_ilp = time (fun () -> Solve.resilience ~time_limit:30.0 sem q db) in
            let ilp_v, stats = res_outcome ilp in
            let lp, t_lp = time (fun () -> Solve.resilience_lp sem q db) in
            let cw, _ = time (fun () -> Approx.flow_cw_res sem q db) in
            let equal =
              match (ilp_v, lp) with
              | Some iv, Some lv -> string_of_bool (Float.abs (float_of_int iv -. lv) < 1e-6)
              | _ -> "-"
            in
            row
              [
                string_of_int witnesses;
                fmt_opt ilp_v;
                fmt_time t_ilp;
                (match lp with Some v -> Printf.sprintf "%.2f" v | None -> "-");
                fmt_time t_lp;
                equal;
                fmt_opt (match cw with Some { Approx.value; _ } -> Some value | None -> None);
                string_of_int stats.Solve.nodes;
              ]
          end)
        (Datagen.Random_inst.log_fractions 5))
    [ (set, 1, "set"); (bag, 10, "bag") ]

(* ---- Setting 5 (Fig. 14): z6 — random data vs adversarial composition ------- *)

let run_setting5 scale =
  let q = Queries.q_z6 () in
  header "Setting 5 (Fig. 14): RES of the newly-hard z6 query, random data"
    [ "witnesses"; "ILP"; "t_ILP"; "LP"; "LP=ILP"; "nodes" ];
  let rng = Random.State.make [| 505 |] in
  let base = int_of_float (400.0 *. scale) in
  let specs =
    [
      { Datagen.Random_inst.rel = "A"; arity = 1; count = base / 4 };
      { rel = "R"; arity = 2; count = base };
      { rel = "C"; arity = 1; count = base / 4 };
    ]
  in
  let pool = Datagen.Random_inst.pool rng ~domain:(max 4 (base / 10)) specs in
  List.iter
    (fun frac ->
      let db = Datagen.Random_inst.prefix_db pool ~frac in
      let witnesses = Eval.count q db in
      if witnesses > 0 then begin
        let ilp, t_ilp = time (fun () -> Solve.resilience ~time_limit:30.0 set q db) in
        let ilp_v, stats = res_outcome ilp in
        let lp, _ = time (fun () -> Solve.resilience_lp set q db) in
        let equal =
          match (ilp_v, lp) with
          | Some iv, Some lv -> string_of_bool (Float.abs (float_of_int iv -. lv) < 1e-6)
          | _ -> "-"
        in
        row
          [
            string_of_int witnesses;
            fmt_opt ilp_v;
            fmt_time t_ilp;
            (match lp with Some v -> Printf.sprintf "%.2f" v | None -> "-");
            equal;
            string_of_int stats.Solve.nodes;
          ]
      end)
    (Datagen.Random_inst.log_fractions 5);
  header "Setting 5 (Fig. 14): adversarial IJP-composed instances (LP < ILP)"
    [ "graph"; "witnesses"; "ILP"; "LP"; "LP=ILP" ];
  match Ijp.Search.find (Queries.q2_chain_sj ()) with
  | None -> print_endline "(no certificate found - unexpected)"
  | Some (jp, _) ->
    List.iter
      (fun (name, edges) ->
        let db = Ijp.Compose.vertex_cover_instance jp ~edges in
        let witnesses = Eval.count (Queries.q2_chain_sj ()) db in
        let ilp, _ = time (fun () -> Solve.resilience set (Queries.q2_chain_sj ()) db) in
        let ilp_v, _ = res_outcome ilp in
        let lp = Solve.resilience_lp set (Queries.q2_chain_sj ()) db in
        row
          [
            name;
            string_of_int witnesses;
            fmt_opt ilp_v;
            (match lp with Some v -> Printf.sprintf "%.2f" v | None -> "-");
            (match (ilp_v, lp) with
            | Some iv, Some lv -> string_of_bool (Float.abs (float_of_int iv -. lv) < 1e-6)
            | _ -> "-");
          ])
      [
        ("C3", Ijp.Compose.odd_cycle 1);
        ("C5", Ijp.Compose.odd_cycle 2);
        ("C7", Ijp.Compose.odd_cycle 3);
      ]

(* ---- Certificates (Figs. 3, 10, 15) ----------------------------------------- *)

let run_certificates () =
  header "Hardness certificates by automatic search (Figs. 3/10/15, Section 7.2)"
    [ "query"; "found"; "witnesses"; "resilience c"; "candidates"; "time" ];
  (* chain^b / chain^abc use the paper's tuple-level exogeneity device
     (Definition 3.3): their small gadgets mark the unary relations'
     tuples exogenous, exactly like A in Fig. 1a. *)
  List.iter
    (fun (name, q, config) ->
      match Ijp.Search.find ?config q with
      | Some (jp, stats) ->
        let c =
          match Ijp.Join_path.check_ijp set jp with Ok c -> string_of_int c | Error _ -> "?"
        in
        row
          [
            name;
            "yes";
            string_of_int (Eval.count q jp.Ijp.Join_path.db);
            c;
            string_of_int stats.Ijp.Search.candidates;
            fmt_time stats.Ijp.Search.elapsed;
          ];
        Format.printf "%a@." Ijp.Join_path.pp jp
      | None -> row [ name; "no"; "-"; "-"; "-"; "-" ])
    [
      ("Q2chainSJ (Fig. 15)", Queries.q2_chain_sj (), None);
      ( "q_chain^b (Fig. 10)",
        Queries.q_chain_b_sj (),
        Some { Ijp.Search.default_config with exo_rels = [ "B" ] } );
      ( "q_chain^abc (Fig. 10)",
        Queries.q_chain_abc_sj (),
        Some { Ijp.Search.default_config with exo_rels = [ "A"; "B"; "C" ] } );
    ]

(* ---- Ablations --------------------------------------------------------------- *)

let run_ablations scale =
  let rng = Random.State.make [| 606 |] in
  let base = int_of_float (200.0 *. scale) in
  header "Ablation A: unified ILP vs dedicated hitting-set branch-and-bound (triangle, set)"
    [ "witnesses"; "ILP"; "t_ILP"; "HittingSet"; "t_HS" ];
  let q = Queries.q_triangle () in
  let specs =
    [
      { Datagen.Random_inst.rel = "R"; arity = 2; count = base };
      { rel = "S"; arity = 2; count = base };
      { rel = "T"; arity = 2; count = base };
    ]
  in
  let pool = Datagen.Random_inst.pool rng ~domain:(max 3 (base / 12)) specs in
  List.iter
    (fun frac ->
      let db = Datagen.Random_inst.prefix_db pool ~frac in
      let witnesses = Eval.count q db in
      if witnesses > 0 then begin
        let ilp, t_ilp = time (fun () -> Solve.resilience ~time_limit:30.0 set q db) in
        let ilp_v, _ = res_outcome ilp in
        (* the dedicated solver explodes without the LP bound; cap its work
           so the ablation terminates (it may then report an incumbent) *)
        let hs, t_hs = time (fun () -> Hitting_set.resilience ~node_limit:3_000_000 set q db) in
        row
          [
            string_of_int witnesses;
            fmt_opt ilp_v;
            fmt_time t_ilp;
            fmt_opt (Option.map fst hs);
            fmt_time t_hs;
          ]
      end)
    (Datagen.Random_inst.log_fractions 4);
  header "Ablation C: float vs exact-rational pipeline (small triangle instances)"
    [ "witnesses"; "float_t"; "exact_t"; "same_value" ];
  let pool3 =
    Datagen.Random_inst.pool rng ~domain:3
      [
        { Datagen.Random_inst.rel = "R"; arity = 2; count = 7 };
        { rel = "S"; arity = 2; count = 7 };
        { rel = "T"; arity = 2; count = 7 };
      ]
  in
  List.iter
    (fun frac ->
      let db = Datagen.Random_inst.prefix_db pool3 ~frac in
      let witnesses = Eval.count q db in
      if witnesses > 0 then begin
        let f, t_f = time (fun () -> Solve.resilience set q db) in
        let e, t_e = time (fun () -> Solve.resilience ~exact:true set q db) in
        let fv, _ = res_outcome f and ev, _ = res_outcome e in
        row [ string_of_int witnesses; fmt_time t_f; fmt_time t_e; string_of_bool (fv = ev) ]
      end)
    [ 0.5; 1.0 ]

(* ---- Bechamel micro-benchmarks ------------------------------------------------ *)

(* The functor instances at the float field: the same bodies as the float
   units behind Lp.Solvers, run through one call per field operation.  The
   "/functor" rows below time them beside the units. *)
module Functor_simplex = Lp.Simplex.Make (Numeric.Field.Float_field)
module Functor_bb = Lp.Branch_bound.Make (Numeric.Field.Float_field)

let run_micro () =
  print_endline "\n== Micro-benchmarks (Bechamel) ==";
  let open Bechamel in
  let rng = Random.State.make [| 707 |] in
  let q = Queries.q2_chain () in
  let db =
    Datagen.Random_inst.db rng ~domain:30 (Datagen.Random_inst.specs_of_query q ~count:150)
  in
  let enc =
    match Encode.res Encode.Lp set q db with
    | Encode.Encoded e -> e
    | _ -> failwith "encode failed"
  in
  let frozen = Lp.Frozen.of_model enc.Encode.model in
  let presolved =
    match Lp.Presolve.presolve frozen with
    | Lp.Presolve.Reduced (m, _) -> m
    | _ -> failwith "presolve failed"
  in
  (* One self-join 2-chain ILP shaped like the batch workload's: 60 R pairs
     over a domain of 18, whose root LP is fractional, so the solve
     branches. *)
  let sj =
    let q = Queries.q2_chain_sj () in
    let db =
      Datagen.Random_inst.db (Random.State.make [| 7 |]) ~domain:18
        [ { Datagen.Random_inst.rel = "R"; arity = 2; count = 60 } ]
    in
    match Encode.res Encode.Ilp set q db with
    | Encode.Encoded e -> Lp.Frozen.of_model e.Encode.model
    | _ -> failwith "encode failed"
  in
  let r = Lp.Solvers.Float_bb.solve_frozen sj in
  Printf.printf "bb-q2chainsj: %d rows, %d columns; %d nodes, %d pivots per solve\n"
    (Lp.Frozen.num_rows sj) (Lp.Frozen.num_vars sj) r.Lp.Solvers.Float_bb.nodes
    r.Lp.Solvers.Float_bb.pivots;
  let tests =
    Test.make_grouped ~name:"resilience"
      [
        Test.make ~name:"witnesses" (Staged.stage (fun () -> ignore (Eval.witnesses q db)));
        Test.make ~name:"encode-ilp"
          (Staged.stage (fun () -> ignore (Encode.res Encode.Ilp set q db)));
        Test.make ~name:"presolve"
          (Staged.stage (fun () -> ignore (Lp.Presolve.presolve frozen)));
        Test.make ~name:"lp-dual"
          (* the dual simplex on the presolved model *)
          (Staged.stage (fun () -> ignore (Lp.Solvers.Float_simplex.solve_frozen presolved)));
        Test.make ~name:"lp-dual-raw"
          (* the production path: freeze + solve of the encoding as built *)
          (Staged.stage (fun () ->
               ignore
                 (Lp.Solvers.Float_simplex.solve_frozen (Lp.Frozen.of_model enc.Encode.model))));
        Test.make ~name:"lp-dual-raw/functor"
          (Staged.stage (fun () ->
               ignore (Functor_simplex.solve_frozen (Lp.Frozen.of_model enc.Encode.model))));
        Test.make ~name:"bb-q2chainsj"
          (Staged.stage (fun () -> ignore (Lp.Solvers.Float_bb.solve_frozen sj)));
        Test.make ~name:"bb-q2chainsj/functor"
          (Staged.stage (fun () -> ignore (Functor_bb.solve_frozen sj)));
        Test.make ~name:"flow-baseline"
          (Staged.stage (fun () -> ignore (Solve.resilience_flow set q db)));
      ]
  in
  (* Wall clock and minor-heap allocation side by side, one row per test. *)
  let clock = Toolkit.Instance.monotonic_clock and minor = Toolkit.Instance.minor_allocated in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ clock; minor ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let times = Analyze.all ols clock raw and words = Analyze.all ols minor raw in
  let estimate tbl name =
    match Option.map Analyze.OLS.estimates (Hashtbl.find_opt tbl name) with
    | Some (Some [ est ]) -> Printf.sprintf "%12.0f" est
    | Some _ | None -> Printf.sprintf "%12s" "-"
  in
  Printf.printf "%-40s %12s %12s\n" "" "ns/run" "words/run";
  Hashtbl.fold (fun name _ acc -> name :: acc) times []
  |> List.sort compare
  |> List.iter (fun name ->
         Printf.printf "%-40s %s %s\n" name (estimate times name) (estimate words name))

(* ---- Ranking batch: warm session vs cold per-tuple solves ----------------------- *)

(* What Solve.responsibility_ranking did before the session layer: a fresh
   witness enumeration, encoding, lint-able model, freeze and
   branch-and-bound per tuple. *)
let cold_ranking sem q db =
  Database.tuples db
  |> List.filter_map (fun info ->
         let tid = info.Database.id in
         if Problem.tuple_exo q db tid then None
         else
           match Solve.responsibility sem q db tid with
           | Solve.Solved a -> Some (tid, a.Solve.rsp_value)
           | Solve.Query_false | Solve.No_contingency | Solve.Budget_exhausted _ -> None)
  |> List.stable_sort (fun (_, a) (_, b) -> compare a b)

(* Basis-kernel figures for one sequential ranking, from the Obs counter
   snapshots around it: LU fill (high-water marks over the run), the eta
   peak, refactorisation count, and the fraction of FTRAN result entries
   that were nonzero (the quantity sparse pricing is supposed to shrink).
   Counters only move while the sink is installed, so this is emitted on
   --trace runs only. *)
let basis_json snap0 snap1 =
  let get snap name = Option.value ~default:0 (List.assoc_opt name snap) in
  let delta name = get snap1 name - get snap0 name in
  let ftran_len = delta "simplex.ftran_len" in
  let ftran_frac =
    if ftran_len > 0 then float_of_int (delta "simplex.ftran_nnz") /. float_of_int ftran_len
    else 1.0
  in
  Obs.Json.(
    Obj
      [
        ("lu_factor_nnz", Int (get snap1 "simplex.lu_factor_nnz"));
        ("lu_fill_pct", Int (get snap1 "simplex.lu_fill_pct"));
        ("eta_peak", Int (get snap1 "simplex.eta_peak"));
        ("refactors", Int (delta "simplex.refactors"));
        ("ftran_nnz_frac", Float ftran_frac);
      ])

let run_ranking ?(jobs = 1) ?(dense = false) ?(basis = `Sparse) ?(metrics = false) ?trace scale
    json =
  if trace <> None then Obs.Sink.install ();
  (* [--metrics] arms the metrics plane for the whole run (no span
     buffering): the CI overhead gate diffs session_s with and without it. *)
  if metrics then Obs.Sink.arm_metrics ();
  let rng = Random.State.make [| 808 |] in
  let q = Queries.q2_chain () in
  let regime = if dense then "dense joins" else "sparse joins" in
  if not json then
    header
      (Printf.sprintf
         "Ranking batch: one warm session vs cold per-tuple solves (2-chain, set, %s, jobs=%d)"
         regime jobs)
      [ "tuples"; "witnesses"; "rows"; "ranked"; "t_cold"; "t_session"; "t_par"; "speedup";
        "par_speedup"; "identical" ];
  let entries = ref [] in
  List.iter
    (fun count ->
      let count = int_of_float (float_of_int count *. scale) in
      (* Sparse joins (domain ~ 2x the relation size): most tuples sit in
         few witnesses, so the cold path's per-tuple witness enumeration,
         encoding and freeze dominate — exactly the cost the session
         amortises.  Dense instances (--dense: domain ~ count/8) instead
         multiply the witness count and with it the shared super-model's
         row count, the axis along which a warm pivot grows costlier; the
         session still wins at every size measured (BENCH.md). *)
      let domain = if dense then max 2 (count / 8) else max 4 (2 * count) in
      let specs = Datagen.Random_inst.specs_of_query q ~count in
      let db = Datagen.Random_inst.db rng ~domain specs in
      let witnesses = Eval.count q db in
      if witnesses > 0 then begin
        (* Row count of the raw shared super-model — the axis the dense
           regime is phrased in. *)
        let rows =
          match Encode.shared_of_sets set q db (Eval.unique_tuple_sets (Eval.witnesses q db)) with
          | Encode.Shared s -> Lp.Frozen.num_rows s.Encode.sfz
          | Encode.Shared_trivial | Encode.Shared_impossible -> 0
        in
        let cold, t_cold = time (fun () -> cold_ranking set q db) in
        let session = Session.create ~basis set q db in
        let snap0 = Obs.Counter.snapshot () in
        let ranked, t_session = time (fun () -> Session.ranking session) in
        let snap1 = Obs.Counter.snapshot () in
        let par, t_par =
          if jobs > 1 then begin
            let par_session = Session.create ~basis set q db in
            let par, t = time (fun () -> Session.ranking ~jobs par_session) in
            (Some par, t)
          end
          else (None, t_session)
        in
        let identical =
          List.map (fun (t, k, _) -> (t, k)) ranked = cold
          && match par with None -> true | Some par -> par = ranked
        in
        let speedup = if t_session > 0.0 then t_cold /. t_session else nan in
        let par_speedup = if t_par > 0.0 then t_session /. t_par else nan in
        let tuples = List.length (Database.tuples db) in
        (* Per-phase breakdown of the sequential session, from its own
           accumulator — where a ranking's time actually goes. *)
        let prof = Session.profile session in
        (* Basis-kernel stats ride along on traced runs (the counters are
           live exactly then); untraced JSON keeps the schema of old runs. *)
        let basis =
          if trace <> None then [ ("basis", basis_json snap0 snap1) ] else []
        in
        entries :=
          Obs.Json.(
            Obj
              ([
                 ("tuples", Int tuples);
                 ("witnesses", Int witnesses);
                 ("rows", Int rows);
                 ("ranked", Int (List.length ranked));
                 ("jobs", Int jobs);
                 ("cold_s", Float t_cold);
                 ("session_s", Float t_session);
                 ("par_s", Float t_par);
                 ("speedup", Float speedup);
                 ("par_speedup", Float par_speedup);
                 ("identical", Bool identical);
                 ( "phases",
                   Obj
                     [
                       ("witnesses_s", Float prof.Session.witnesses_s);
                       ("encode_s", Float prof.Session.encode_s);
                       ("solve_s", Float prof.Session.solve_s);
                       ("questions", Int prof.Session.questions);
                     ] );
               ]
              @ basis))
          :: !entries;
        if not json then
          row
            [
              string_of_int tuples;
              string_of_int witnesses;
              string_of_int rows;
              string_of_int (List.length ranked);
              fmt_time t_cold;
              fmt_time t_session;
              fmt_time t_par;
              Printf.sprintf "%.1fx" speedup;
              Printf.sprintf "%.1fx" par_speedup;
              string_of_bool identical;
            ]
      end)
    [ 100; 200; 400 ];
  if json then print_endline (Obs.Json.to_string (Obs.Json.List (List.rev !entries)));
  if metrics then Obs.Sink.disarm_metrics ();
  match trace with
  | None -> ()
  | Some path ->
    let spans = Obs.Trace.drain () in
    Obs.Sink.uninstall ();
    Obs.Export.chrome_to_file path spans;
    if not json then Printf.printf "trace written to %s\n" path

(* ---- serve: steady-state cached latency vs cold one-shot ----------------------- *)

(* Histogram-backed percentile reducer: samples feed a raw (ungated)
   Obs.Histogram and quantiles come back within its bounded relative error
   (~3.1%) — the same math the serve metrics plane reports, so bench
   figures and production metrics agree on convention.  It also makes tail
   quantiles (p999) meaningful without storing every sample. *)
let hist_of samples =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) samples;
  h

let percentile p h = Obs.Histogram.percentile h p

(* The serve fast path in one number: a cached incremental session answers a
   repeated resilience question without re-running the witness join, the
   encode, or the freeze — only the warm solve.  The cold baseline is what
   a one-shot CLI invocation pays per question (everything from the join
   down, process startup excluded).  Mutate rows measure the delta path: one
   fresh-tuple insert (delta-join + program append) followed by a warm
   re-solve. *)
let run_serve ?(jobs = 1) scale json =
  let rng = Random.State.make [| 909 |] in
  let q = Queries.q2_chain () in
  if not json then
    header
      (Printf.sprintf
         "Serve: steady-state cached latency vs cold one-shot (2-chain, set, jobs=%d)" jobs)
      [ "tuples"; "witnesses"; "cold_p50"; "cold_p99"; "serve_p50"; "serve_p99"; "serve_p999";
        "mutate_p50"; "rank_ms"; "speedup_p50" ];
  let entries = ref [] in
  List.iter
    (fun count ->
      let count = max 8 (int_of_float (float_of_int count *. scale)) in
      let specs = Datagen.Random_inst.specs_of_query q ~count in
      let db = Datagen.Random_inst.db rng ~domain:(max 4 count) specs in
      let witnesses = Eval.count q db in
      if witnesses > 0 then begin
        let qtext = Cq.to_string q in
        (* Cold baseline: the full per-question pipeline. *)
        let cold =
          List.init 12 (fun _ ->
              let _, t = time (fun () -> Solve.resilience set q db) in
              t *. 1000.0)
        in
        (* Serve path: load once, then repeated cached asks over loopback. *)
        let engine = Serve.Engine.create () in
        let data =
          String.concat "\n"
            (List.map (fun info -> Database_io.print_tuple db info.Database.id)
               (Database.tuples db))
        in
        let request j = Serve.Engine.handle_line engine (Obs.Json.to_string j) in
        let ask =
          Obs.Json.Obj [ ("op", Obs.Json.Str "resilience"); ("query", Obs.Json.Str qtext) ]
        in
        ignore
          (request
             (Obs.Json.Obj [ ("op", Obs.Json.Str "load"); ("data", Obs.Json.Str data) ]));
        ignore (request ask) (* warm the session: join + encode + first solve *);
        let serve =
          List.init 40 (fun _ ->
              let _, t = time (fun () -> ignore (request ask)) in
              t *. 1000.0)
        in
        (* Delta path: fresh-tuple insert, then the warm re-solve. *)
        let mutate =
          List.init 10 (fun i ->
              let tuple = Printf.sprintf "R(%d, %d)" (100000 + i) (200000 + i) in
              ignore
                (request
                   (Obs.Json.Obj
                      [ ("op", Obs.Json.Str "insert"); ("tuple", Obs.Json.Str tuple) ]));
              let _, t = time (fun () -> ignore (request ask)) in
              t *. 1000.0)
        in
        (* One pool-fanned ranking request, exercising the jobs parameter. *)
        let _, rank_t =
          time (fun () ->
              ignore
                (request
                   (Obs.Json.Obj
                      [
                        ("op", Obs.Json.Str "rank");
                        ("query", Obs.Json.Str qtext);
                        ("jobs", Obs.Json.Int jobs);
                      ])))
        in
        let cold_h = hist_of cold and serve_h = hist_of serve and mutate_h = hist_of mutate in
        let cold_p50 = percentile 50.0 cold_h and cold_p99 = percentile 99.0 cold_h in
        let serve_p50 = percentile 50.0 serve_h and serve_p99 = percentile 99.0 serve_h in
        let serve_p999 = percentile 99.9 serve_h in
        let mutate_p50 = percentile 50.0 mutate_h in
        let speedup = if serve_p50 > 0.0 then cold_p50 /. serve_p50 else nan in
        let tuples = List.length (Database.tuples db) in
        entries :=
          Obs.Json.(
            Obj
              [
                ("tuples", Int tuples);
                ("witnesses", Int witnesses);
                ("jobs", Int jobs);
                ("cold_p50_ms", Float cold_p50);
                ("cold_p99_ms", Float cold_p99);
                ("serve_p50_ms", Float serve_p50);
                ("serve_p99_ms", Float serve_p99);
                ("serve_p999_ms", Float serve_p999);
                ("mutate_p50_ms", Float mutate_p50);
                ("rank_ms", Float (rank_t *. 1000.0));
                ("speedup_p50", Float speedup);
              ])
          :: !entries;
        if not json then
          row
            [
              string_of_int tuples;
              string_of_int witnesses;
              Printf.sprintf "%.3fms" cold_p50;
              Printf.sprintf "%.3fms" cold_p99;
              Printf.sprintf "%.3fms" serve_p50;
              Printf.sprintf "%.3fms" serve_p99;
              Printf.sprintf "%.3fms" serve_p999;
              Printf.sprintf "%.3fms" mutate_p50;
              Printf.sprintf "%.3fms" (rank_t *. 1000.0);
              Printf.sprintf "%.1fx" speedup;
            ]
      end)
    [ 100; 200; 400 ];
  if json then print_endline (Obs.Json.to_string (Obs.Json.List (List.rev !entries)))

(* ---- enumerate: warm no-good cut chain vs cold re-solves ------------------------ *)

(* The enumeration engine in two numbers: cut throughput (no-good cuts
   appended and re-solved per second on the warm session) and the warm
   re-solve's pivot bill relative to the cold reference, which re-solves the
   whole ILP from scratch after every cut.  The 2-chain over a dense join
   domain keeps the cut re-solves off the certificate fast path, so both
   paths genuinely branch, while branch-and-bound stays shallow enough that
   the root re-solve — the part the warm basis pays for — dominates the
   pivot bill.  A warm re-solve's pivots include its relaxation probe.
   The CI gate asserts the aggregate warm/cold pivots-per-cut ratio stays
   small — the proof the appended cut is absorbed basis-intact rather than
   paid for with a cold solve. *)
let run_enumerate ?(jobs = 1) scale json =
  let rng = Random.State.make [| 1010 |] in
  let q = Queries.q2_chain () in
  if not json then
    header
      (Printf.sprintf
         "Enumerate: warm no-good cut chain vs cold re-solves (2-chain, set, jobs=%d)" jobs)
      [ "tuples"; "witnesses"; "opt"; "sets"; "exhausted"; "cuts"; "cuts_per_s";
        "warm_piv/cut"; "cold_piv/cut"; "ratio"; "identical" ];
  let entries = ref [] in
  let warm_pivots = ref 0 and cold_pivots = ref 0 in
  let warm_cuts = ref 0 and cold_cuts = ref 0 in
  let all_identical = ref true in
  List.iter
    (fun (count, domain) ->
      (* The domain grows as the square root of the tuple count, so join
         density (count / domain^2) stays put at every scale. *)
      let count = max 8 (int_of_float (float_of_int count *. scale)) in
      let domain = max 4 (int_of_float (float_of_int domain *. sqrt scale)) in
      let specs = Datagen.Random_inst.specs_of_query q ~count in
      let db = Datagen.Random_inst.db rng ~domain specs in
      let witnesses = Eval.count q db in
      if witnesses > 0 then begin
        let session = Session.create set q db in
        let warm, t_warm = time (fun () -> Session.enumerate_resilience ~jobs session) in
        let cold, t_cold = time (fun () -> Enumerate.resilience_cold set q db) in
        match (warm, cold) with
        | Session.Solved wf, Enumerate.Family cf ->
          let ws = wf.Enumerate.fstats and cs = cf.Enumerate.fstats in
          let identical = wf.Enumerate.opt = cf.Enumerate.opt && wf.Enumerate.sets = cf.Enumerate.sets in
          if not identical then all_identical := false;
          warm_pivots := !warm_pivots + ws.Enumerate.cut_pivots;
          cold_pivots := !cold_pivots + cs.Enumerate.cut_pivots;
          warm_cuts := !warm_cuts + ws.Enumerate.cuts;
          cold_cuts := !cold_cuts + cs.Enumerate.cuts;
          let per_cut pivots cuts =
            if cuts > 0 then float_of_int pivots /. float_of_int cuts else 0.0
          in
          let warm_per_cut = per_cut ws.Enumerate.cut_pivots ws.Enumerate.cuts in
          let cold_per_cut = per_cut cs.Enumerate.cut_pivots cs.Enumerate.cuts in
          let ratio = if cold_per_cut > 0.0 then warm_per_cut /. cold_per_cut else nan in
          let cuts_per_s =
            if t_warm > 0.0 then float_of_int ws.Enumerate.cuts /. t_warm else nan
          in
          let tuples = List.length (Database.tuples db) in
          entries :=
            Obs.Json.(
              Obj
                [
                  ("tuples", Int tuples);
                  ("witnesses", Int witnesses);
                  ("jobs", Int jobs);
                  ("opt", Int wf.Enumerate.opt);
                  ("sets", Int (List.length wf.Enumerate.sets));
                  ("exhausted", Bool wf.Enumerate.exhausted);
                  ("cuts", Int ws.Enumerate.cuts);
                  ("warm_s", Float t_warm);
                  ("cold_s", Float t_cold);
                  ("cuts_per_s", Float cuts_per_s);
                  ("warm_cut_pivots", Int ws.Enumerate.cut_pivots);
                  ("cold_cut_pivots", Int cs.Enumerate.cut_pivots);
                  ("warm_pivots_per_cut", Float warm_per_cut);
                  ("cold_pivots_per_cut", Float cold_per_cut);
                  ("identical", Bool identical);
                ])
            :: !entries;
          if not json then
            row
              [
                string_of_int tuples;
                string_of_int witnesses;
                string_of_int wf.Enumerate.opt;
                string_of_int (List.length wf.Enumerate.sets);
                string_of_bool wf.Enumerate.exhausted;
                string_of_int ws.Enumerate.cuts;
                Printf.sprintf "%.1f" cuts_per_s;
                Printf.sprintf "%.2f" warm_per_cut;
                Printf.sprintf "%.2f" cold_per_cut;
                (if Float.is_nan ratio then "-" else Printf.sprintf "%.3f" ratio);
                string_of_bool identical;
              ]
        | _ -> ()
      end)
    [ (200, 20); (320, 26); (480, 32) ];
  let warm_per_cut =
    if !warm_cuts > 0 then float_of_int !warm_pivots /. float_of_int !warm_cuts else 0.0
  in
  let cold_per_cut =
    if !cold_cuts > 0 then float_of_int !cold_pivots /. float_of_int !cold_cuts else 0.0
  in
  let ratio = if cold_per_cut > 0.0 then warm_per_cut /. cold_per_cut else nan in
  if json then
    print_endline
      (Obs.Json.to_string
         Obs.Json.(
           Obj
             [
               ("rows", List (List.rev !entries));
               ( "aggregate",
                 Obj
                   [
                     ("warm_cut_pivots", Int !warm_pivots);
                     ("cold_cut_pivots", Int !cold_pivots);
                     ("warm_pivots_per_cut", Float warm_per_cut);
                     ("cold_pivots_per_cut", Float cold_per_cut);
                     ("warm_vs_cold_ratio", Float ratio);
                     ("identical", Bool !all_identical);
                   ] );
             ]))
  else
    Printf.printf "aggregate: warm %.2f pivots/cut vs cold %.2f pivots/cut (ratio %.3f), identical %b\n"
      warm_per_cut cold_per_cut ratio !all_identical

(* ---- certificate coverage ------------------------------------------------------ *)

(* Which query classes get which Lp.Struct certificate, and does the
   certificate-aware dispatch actually skip branch-and-bound?  One random
   instance per named query; the EXPERIMENTS.md coverage table is this
   command at the default scale. *)
let run_certify scale =
  header "Certificate coverage: Lp.Struct verdicts per query class (set semantics)"
    [ "query"; "RES/set"; "verdict"; "witness"; "structural"; "certified"; "nodes" ];
  let show = function
    | Analysis.Ptime -> "PTIME"
    | Analysis.Npc -> "NPC"
    | Analysis.Unknown -> "open"
  in
  let rng = Random.State.make [| 808 |] in
  List.iter
    (fun (name, q) ->
      let count = max 6 (int_of_float (40.0 *. scale)) in
      let specs = Datagen.Random_inst.specs_of_query q ~count in
      let db = Datagen.Random_inst.db rng ~domain:10 specs in
      let complexity = show (Analysis.res_complexity set q) in
      match Encode.res Encode.Ilp set q db with
      | Encode.Trivial _ | Encode.Impossible ->
        row [ name; complexity; "-"; "-"; "-"; "-"; "-" ]
      | Encode.Encoded enc ->
        let fz = Lp.Frozen.of_model enc.Encode.model in
        let cert = Lp.Struct.analyze ~probe_root:true fz in
        let witness =
          match cert.Lp.Struct.verdict with
          | Lp.Struct.Integral w -> Lp.Struct.witness_name w
          | Lp.Struct.Fractional _ | Lp.Struct.Unknown -> "-"
        in
        let certified, nodes =
          match Solve.resilience set q db with
          | Solve.Solved a ->
            (string_of_bool a.Solve.res_stats.Solve.certified,
             string_of_int a.Solve.res_stats.Solve.nodes)
          | Solve.Query_false | Solve.No_contingency | Solve.Budget_exhausted _ -> ("-", "-")
        in
        row
          [
            name; complexity;
            Lp.Struct.verdict_name cert;
            witness;
            string_of_bool (Lp.Struct.structural cert);
            certified; nodes;
          ])
    (Queries.all_named ())

(* ---- command wiring ------------------------------------------------------------ *)

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"Instance size multiplier")

let simple name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun () ->
          f ();
          0)
      $ const ())

let scaled name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun scale ->
          f scale;
          0)
      $ scale_arg)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit one machine-readable JSON array instead of a table")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Also time Session.ranking over N domains (0 = all recommended domains) and \
           report its speedup over the sequential session")

let dense_arg =
  Arg.(
    value
    & flag
    & info [ "dense" ]
        ~doc:
          "Shrink the join domain so witnesses multiply — the dense regime, where the shared \
           super-model's row count grows fastest relative to the per-tuple programs")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record solver telemetry for the whole run and write a Chrome trace-event JSON \
           (load in Perfetto; one track per domain)")

let basis_arg =
  Arg.(
    value
    & opt (enum [ ("sparse", `Sparse); ("dense", `Dense) ]) `Sparse
    & info [ "basis" ] ~docv:"KERNEL"
        ~doc:
          "Basis kernel for every session the benchmark opens: sparse LU (the default), or \
           dense (the reference inverse, for before/after comparisons)")

let metrics_arg =
  Arg.(
    value
    & flag
    & info [ "metrics" ]
        ~doc:
          "Arm the metrics plane (histograms, gauges, counters; no span buffering) for the \
           whole run — the CI overhead gate compares session times with and without this \
           flag")

let ranking_cmd =
  Cmd.v (Cmd.info "ranking" ~doc:"responsibility ranking: warm session vs cold per-tuple solves")
    Term.(
      const (fun scale json jobs dense basis metrics trace ->
          let jobs = if jobs = 0 then Lp.Pool.default_jobs () else jobs in
          run_ranking ~jobs ~dense ~basis ~metrics ?trace scale json;
          0)
      $ scale_arg $ json_arg $ jobs_arg $ dense_arg $ basis_arg $ metrics_arg $ trace_arg)

let run_all scale =
  run_table1 ();
  run_setting1 scale;
  run_setting2 scale;
  run_setting3 scale;
  run_setting4 scale;
  run_setting5 scale;
  run_certificates ();
  run_certify scale;
  run_ablations scale;
  run_ranking scale false;
  run_micro ()

let () =
  let doc = "experiment harness reproducing the paper's tables and figures" in
  let info = Cmd.info "bench" ~doc in
  let default =
    Term.(
      const (fun scale ->
          run_all scale;
          0)
      $ scale_arg)
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            simple "table1" "Table 1: dichotomy overview" run_table1;
            scaled "setting1" "Fig. 5: hard 3-star query" run_setting1;
            scaled "setting2" "Fig. 6: TPC-H-shaped data" run_setting2;
            scaled "setting3" "Fig. 7: self-joins under bags" run_setting3;
            scaled "setting4" "Fig. 13: set vs bag on QtriangleA" run_setting4;
            scaled "setting5" "Fig. 14: z6 and adversarial instances" run_setting5;
            simple "certificates" "Figs. 3/10/15: automatic IJP certificates" run_certificates;
            scaled "certify" "Lp.Struct certificate coverage per query class" run_certify;
            scaled "ablations" "design-choice ablations" run_ablations;
            ranking_cmd;
            Cmd.v
              (Cmd.info "serve"
                 ~doc:"serve: steady-state cached latency vs cold one-shot solves")
              Term.(
                const (fun scale json jobs ->
                    let jobs = if jobs = 0 then Lp.Pool.default_jobs () else jobs in
                    run_serve ~jobs scale json;
                    0)
                $ scale_arg $ json_arg $ jobs_arg);
            Cmd.v
              (Cmd.info "enumerate"
                 ~doc:
                   "enumerate: warm no-good cut throughput and pivots-per-cut vs the cold \
                    re-solve reference")
              Term.(
                const (fun scale json jobs ->
                    let jobs = if jobs = 0 then Lp.Pool.default_jobs () else jobs in
                    run_enumerate ~jobs scale json;
                    0)
                $ scale_arg $ json_arg $ jobs_arg);
            simple "micro" "Bechamel micro-benchmarks" run_micro;
          ]))
