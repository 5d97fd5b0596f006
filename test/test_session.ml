(* Session layer: the batched, warm-started solve path must agree with the
   one-shot solvers — per tuple, on random instances, under float and exact
   arithmetic — and the warm dual-simplex session must agree with a cold
   solve for every delta kind. *)

open Relalg
open Resilience

(* Random instances and the per-tuple reference ranking come from the shared
   Harness module. *)

let ranking_agrees ~exact rng =
  let sem, q, db = Harness.random_case rng in
  let session = Session.create ~exact sem q db in
  let got = List.map (fun (tid, k, _) -> (tid, k)) (Session.ranking session) in
  got = Harness.reference_ranking ~exact sem q db

let resilience_agrees ~exact rng =
  let sem, q, db = Harness.random_case rng in
  let session = Session.create ~exact sem q db in
  match (Session.resilience session, Solve.resilience ~exact sem q db) with
  | Session.Solved a, Solve.Solved b ->
    a.Session.res_value = b.Solve.res_value
    && Solve.verify_contingency sem q db a.Session.contingency
  | Session.Query_false, Solve.Query_false -> true
  | Session.No_contingency, Solve.No_contingency -> true
  | _ -> false

(* Responsibility sets read back from the shared program must be valid
   contingencies for their tuple, not just have the right size. *)
let responsibility_sets_valid rng =
  let sem, q, db = Harness.random_case rng in
  let session = Session.create sem q db in
  List.for_all
    (fun info ->
      let tid = info.Database.id in
      match Session.responsibility session tid with
      | Session.Solved a -> Solve.verify_responsibility_set q db tid a.Session.responsibility_set
      | Session.Query_false | Session.No_contingency | Session.Budget_exhausted _ -> true)
    (Database.tuples db)

let qcheck_cases =
  [
    (* 140 float + 70 exact = 210 random instances ranked differentially. *)
    Harness.seeded_prop ~count:140 "Session.ranking = per-tuple Solve.responsibility (float)"
      (ranking_agrees ~exact:false);
    Harness.seeded_prop ~count:70 "Session.ranking = per-tuple Solve.responsibility (exact)"
      (ranking_agrees ~exact:true);
    Harness.seeded_prop ~count:120 "Session.resilience = Solve.resilience (float)"
      (resilience_agrees ~exact:false);
    Harness.seeded_prop ~count:60 "Session.resilience = Solve.resilience (exact)"
      (resilience_agrees ~exact:true);
    Harness.seeded_prop ~count:80 "Session responsibility sets are valid contingencies"
      responsibility_sets_valid;
  ]

(* --- Parallel vs sequential ------------------------------------------------ *)

(* The ranking must be bit-identical — same tuples, same k, same rho
   floats — for every job count.  The instance is ranked on one domain
   once and in parallel at jobs ∈ {2, 4}. *)
let ranking_jobs_agree ~exact rng =
  let sem, q, db = Harness.random_case rng in
  let ranking jobs = Session.ranking ~jobs (Session.create ~exact sem q db) in
  let sequential = ranking 1 in
  List.for_all (fun jobs -> ranking jobs = sequential) [ 2; 4 ]

let par_qcheck_cases =
  [
    (* 140 float + 70 exact = 210 random instances, each ranked at two job
       counts against the sequential ranking.  The test names keep their
       ids from when the parallel ranking had its own entry point; it is
       now Session.ranking ~jobs. *)
    Harness.seeded_prop ~count:140 "Session.ranking_par = Session.ranking (float, jobs 1/2/4)"
      (ranking_jobs_agree ~exact:false);
    Harness.seeded_prop ~count:70 "Session.ranking_par = Session.ranking (exact, jobs 1/2/4)"
      (ranking_jobs_agree ~exact:true);
  ]

(* --- Fixed fixtures: sparse, dense, mid-size ------------------------------ *)

let dense_db () =
  (* R and S over a 2-value join domain: 60x60 tuples give ~1800 witnesses,
     so the shared program is far larger than any per-tuple one. *)
  let db = Database.create () in
  for i = 0 to 59 do
    ignore (Database.add db "R" [| i; i mod 2 |]);
    ignore (Database.add db "S" [| i mod 2; i |])
  done;
  db

let test_dense_ranking_jobs () =
  (* The per-tuple reference is too slow on this fixture; the parallel
     ranking (per-domain engines over the shared arrays) is checked against
     the sequential one instead. *)
  let q = Queries.q2_chain () in
  let db = dense_db () in
  let sequential = Session.ranking (Session.create Problem.Set q db) in
  Alcotest.(check bool) "fixture ranks tuples" true (sequential <> []);
  Alcotest.(check bool) "2 jobs rank as 1" true
    (Session.ranking ~jobs:2 (Session.create Problem.Set q db) = sequential)

(* A 2-chain instance drawn by [Datagen.Random_inst] from a fixed seed. *)
let chain_db ~seed ~count ~domain =
  let specs = Datagen.Random_inst.specs_of_query (Queries.q2_chain ()) ~count in
  Datagen.Random_inst.db (Harness.rng_of seed) ~domain specs

let check_matches_reference db =
  let q = Queries.q2_chain () in
  let got = List.map (fun (t, k, _) -> (t, k)) (Session.ranking (Session.create Problem.Set q db)) in
  Alcotest.(check bool) "fixture ranks tuples" true (got <> []);
  Alcotest.(check (list (pair int int)))
    "identical rankings"
    (Harness.reference_ranking ~exact:false Problem.Set q db)
    got

(* A wide join domain: few witnesses per tuple, a sparse shared program. *)
let test_sparse_ranking_matches_reference () =
  check_matches_reference (chain_db ~seed:42 ~count:40 ~domain:80)

(* A mid-size instance whose shared program dwarfs each per-tuple one. *)
let mid_db () = chain_db ~seed:7 ~count:12 ~domain:3

let test_ranking_matches_reference () = check_matches_reference (mid_db ())

let test_dense_basis_ranks_identically () =
  (* The dense-inverse kernel is the reference for the default sparse LU:
     on the mid-size fixture both rank the same tuples with the same k and
     the same rho. *)
  let q = Queries.q2_chain () in
  let sparse = Session.ranking (Session.create Problem.Set q (mid_db ())) in
  let dense = Session.ranking (Session.create ~basis:`Dense Problem.Set q (mid_db ())) in
  Alcotest.(check bool) "fixture ranks tuples" true (sparse <> []);
  Alcotest.(check bool) "dense kernel = sparse kernel" true (dense = sparse)

(* --- Warm vs cold dual simplex, per delta kind ----------------------------- *)

(* A small covering program with distinct costs so optima are unambiguous:
   min x0 + 2 x1 + 3 x2 + 4 x3
   s.t. x0 + x1 >= 1;  x1 + x2 >= 1;  x2 + x3 >= 1;  x0..x3 in [0,1]. *)
let chain_frozen () =
  let m = Lp.Model.create () in
  let v = Array.init 4 (fun i -> Lp.Model.add_var ~upper:1 ~obj:(i + 1) m) in
  Lp.Model.add_constr m [ (v.(0), 1); (v.(1), 1) ] Lp.Model.Geq 1;
  Lp.Model.add_constr m [ (v.(1), 1); (v.(2), 1) ] Lp.Model.Geq 1;
  Lp.Model.add_constr m [ (v.(2), 1); (v.(3), 1) ] Lp.Model.Geq 1;
  (Lp.Frozen.of_model m, v)

let check_outcome name cold warm =
  let open Lp.Solvers.Float_simplex in
  match (cold, warm) with
  | Optimal a, Optimal b ->
    Alcotest.(check (float 1e-9)) (name ^ ": objective") a.objective b.objective;
    Array.iteri
      (fun i x -> Alcotest.(check (float 1e-9)) (Printf.sprintf "%s: x%d" name i) x b.solution.(i))
      a.solution
  | Infeasible, Infeasible -> ()
  | _ -> Alcotest.fail (name ^ ": cold and warm outcome kinds differ")

let test_warm_vs_cold_deltas () =
  let fz, v = chain_frozen () in
  let warm = Lp.Solvers.Float_simplex.create_session fz in
  let open Lp.Frozen.Delta in
  (* One warm session solves the whole sequence; the cold side gets a fresh
     session per delta.  Each step exercises a delta kind against a basis
     left warm by a *different* previous delta. *)
  let steps =
    [
      ("empty", empty);
      ("fix_zero", fix_zero v.(1) empty);
      ("force_one", force_one v.(0) empty);
      ("fix_zero+force_one", fix_zero v.(2) (force_one v.(3) empty));
      ("release", release v.(1) (fix_zero v.(1) empty));
      ("all fixed", fix_zero v.(0) (force_one v.(1) (force_one v.(2) (fix_zero v.(3) empty))));
      ("infeasible pair", fix_zero v.(0) (fix_zero v.(1) empty));
      ("back to empty", empty);
    ]
  in
  List.iter
    (fun (name, delta) ->
      let cold =
        Lp.Solvers.Float_simplex.session_solve (Lp.Solvers.Float_simplex.create_session fz) delta
      in
      check_outcome name cold (Lp.Solvers.Float_simplex.session_solve warm delta))
    steps

(* Random frozen covering programs and random delta sequences: one warm
   session must match a cold session at every step. *)
let warm_equals_cold rng =
  let nvars = 3 + Random.State.int rng 5 in
  let nrows = 2 + Random.State.int rng 5 in
  let fz, vars = Harness.random_covering_frozen rng ~nvars ~nrows in
  let warm = Lp.Solvers.Float_simplex.create_session fz in
  let ok = ref true in
  for _ = 1 to 8 do
    let delta =
      List.fold_left
        (fun d v ->
          match Random.State.int rng 3 with
          | 0 -> Lp.Frozen.Delta.fix_zero v d
          | 1 -> Lp.Frozen.Delta.force_one v d
          | _ -> d)
        Lp.Frozen.Delta.empty (Array.to_list vars)
    in
    let cold =
      Lp.Solvers.Float_simplex.session_solve (Lp.Solvers.Float_simplex.create_session fz) delta
    in
    let open Lp.Solvers.Float_simplex in
    (match (cold, session_solve warm delta) with
    | Optimal a, Optimal b -> if Float.abs (a.objective -. b.objective) > 1e-7 then ok := false
    | Infeasible, Infeasible -> ()
    | _ -> ok := false)
  done;
  !ok

let warm_qcheck =
  Harness.seeded_prop ~count:300 "warm session = cold session on random delta sequences"
    warm_equals_cold

(* --- Edge cases ------------------------------------------------------------ *)

let test_exogenous_skipped () =
  (* An exogenous tuple never appears in the ranking, even when it sits in
     every witness. *)
  let db = Database.create () in
  let r = Database.add db "R" [| 1; 2 |] in
  ignore (Database.add db "S" [| 2; 3 |]);
  Database.set_exo db r true;
  let q = Queries.q2_chain () in
  let session = Session.create Problem.Set q db in
  let ranked = Session.ranking session in
  Alcotest.(check bool) "exogenous tuple absent" true
    (List.for_all (fun (tid, _, _) -> tid <> r) ranked);
  Alcotest.(check int) "only the endogenous tuple ranks" 1 (List.length ranked)

let test_query_false_session () =
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 2 |]);
  let q = Queries.q2_chain () in
  let session = Session.create Problem.Set q db in
  (match Session.resilience session with
  | Session.Query_false -> ()
  | _ -> Alcotest.fail "expected Query_false");
  Alcotest.(check int) "empty ranking" 0 (List.length (Session.ranking session))

let test_fully_exogenous_witness () =
  (* A witness of only exogenous tuples blocks everything. *)
  let db = Database.create () in
  let r = Database.add db "R" [| 1; 2 |] in
  let s = Database.add db "S" [| 2; 3 |] in
  ignore (Database.add db "R" [| 4; 5 |]);
  ignore (Database.add db "S" [| 5; 6 |]);
  Database.set_exo db r true;
  Database.set_exo db s true;
  let q = Queries.q2_chain () in
  let session = Session.create Problem.Set q db in
  (match Session.resilience session with
  | Session.No_contingency -> ()
  | _ -> Alcotest.fail "expected No_contingency");
  Alcotest.(check int) "empty ranking" 0 (List.length (Session.ranking session))

(* --- What the solve paths run ---------------------------------------------- *)

(* [create] is idempotent: this is the solver's own cell whenever the module
   that registers it is linked in (and a fresh, never-bumped one when no
   code that could bump it is). *)
let counter name = Obs.Counter.value (Obs.Counter.create name)

let test_solve_paths_run_encoding_as_built () =
  (* Every solve path hands the encoding to the solver as built: with a
     trace sink installed (so every counter records), cold RES and RSP, a
     warm ranking and an enumeration leave the presolve and
     structure-analysis counters at 0 — and answer what exhaustive search
     answers.  One exogenous tuple gives the encodings the singleton and
     dominated rows presolve would otherwise reduce. *)
  let sem = Problem.Set in
  let q = Queries.q2_chain () in
  let db = chain_db ~seed:3 ~count:5 ~domain:2 in
  Database.set_exo db (List.hd (Database.tuples db)).Database.id true;
  Obs.Sink.install ();
  Fun.protect ~finally:Obs.Sink.uninstall @@ fun () ->
  let res = Solve.resilience sem q db in
  let tuples = Problem.endogenous_tuples q db in
  let rsps = List.map (fun t -> (t, Solve.responsibility sem q db t)) tuples in
  let session = Session.create sem q db in
  let ranking = List.map (fun (t, k, _) -> (t, k)) (Session.ranking session) in
  let family = Session.enumerate_resilience session in
  Alcotest.(check int) "presolve.passes" 0 (counter "presolve.passes");
  Alcotest.(check int) "struct.analyses" 0 (counter "struct.analyses");
  (match (res, Bruteforce.resilience sem q db) with
  | Solve.Solved a, Some v -> Alcotest.(check int) "RES* = brute force" v a.Solve.res_value
  | _ -> Alcotest.fail "fixture: RES* must be solved and finite");
  let brute_rsp = List.map (fun t -> (t, Bruteforce.responsibility sem q db t)) tuples in
  List.iter
    (fun (t, o) ->
      match (o, List.assoc t brute_rsp) with
      | Solve.Solved a, Some v ->
        Alcotest.(check int) (Printf.sprintf "RSP*(t%d) = brute force" t) v a.Solve.rsp_value
      | Solve.No_contingency, None -> ()
      | _ -> Alcotest.failf "RSP*(t%d): verdict differs from brute force" t)
    rsps;
  Alcotest.(check (list (pair int int)))
    "ranking = brute force"
    (List.sort compare (List.filter_map (fun (t, v) -> Option.map (fun k -> (t, k)) v) brute_rsp))
    (List.sort compare ranking);
  match (family, Bruteforce.resilience_family sem q db) with
  | Session.Solved f, Some (opt, sets) ->
    Alcotest.(check int) "enumeration optimum" opt f.Enumerate.opt;
    Alcotest.(check (list (list int))) "enumerated family = brute force" sets f.Enumerate.sets
  | _ -> Alcotest.fail "fixture: the enumeration must be solved"

(* A ranking solves every candidate on engines its pool opens, so it
   builds no warm engine; the first question that solves on the session
   builds it once. *)
let test_ranking_builds_no_warm_engine () =
  let session = Session.create Problem.Set (Queries.q2_chain ()) (mid_db ()) in
  Obs.Sink.install ();
  Fun.protect ~finally:Obs.Sink.uninstall @@ fun () ->
  let preps () =
    List.length (List.filter (fun s -> s.Obs.Trace.name = "session.prep") (Obs.Trace.drain ()))
  in
  Alcotest.(check bool) "ranked" true (Session.ranking session <> []);
  Alcotest.(check int) "ranking: no session.prep" 0 (preps ());
  ignore (Session.resilience session);
  ignore (Session.resilience session);
  Alcotest.(check int) "resilience afterwards: one session.prep" 1 (preps ())

(* --- Writes as overlays -------------------------------------------------------- *)

(* A certified answer reports the simplex work its root relaxation did,
   not zero: the pivots in its stats equal the [simplex.pivots] counter's
   movement over the question. *)
let test_certified_reports_pivots () =
  let session = Session.create Problem.Set (Queries.q2_chain ()) (mid_db ()) in
  Obs.Sink.install ();
  Fun.protect ~finally:Obs.Sink.uninstall @@ fun () ->
  let p0 = counter "simplex.pivots" in
  match Session.resilience session with
  | Session.Solved a ->
    let st = a.Session.res_stats in
    Alcotest.(check bool) "certified" true st.Session.certified;
    Alcotest.(check bool) "the root LP pivoted" true (st.Session.pivots > 0);
    Alcotest.(check int) "pivots = simplex.pivots delta" (counter "simplex.pivots" - p0)
      st.Session.pivots
  | _ -> Alcotest.fail "fixture: RES* must be solved"

(* Appended integer columns enter the root-certificate integrality check.
   Twenty disjoint 2-paths give the base program an integral LP optimum;
   inserting a 3-cycle then appends its columns and rows only, and the
   covering LP of a 3-cycle is fractional (1/2 per tuple).  An integrality
   check over the base columns alone would accept that point as certified
   with a contingency that keeps the query true. *)
let test_appended_columns_checked () =
  let sem = Problem.Set and q = Queries.q2_chain_sj () in
  let db = Database.create () in
  for i = 1 to 20 do
    ignore (Database.add db "R" [| (100 * i) + 1; (100 * i) + 2 |]);
    ignore (Database.add db "R" [| (100 * i) + 2; (100 * i) + 3 |])
  done;
  let session = Session.create sem q db in
  Obs.Sink.install ();
  Fun.protect ~finally:Obs.Sink.uninstall @@ fun () ->
  List.iter
    (fun args -> ignore (Session.insert db [ session ] "R" args))
    [ [| 1; 2 |]; [| 2; 3 |]; [| 3; 1 |] ];
  let answer = Session.resilience session in
  Alcotest.(check int) "inserts taken as overlays" 0 (counter "incremental.rebuilds");
  match (answer, Solve.resilience sem q db) with
  | Session.Solved a, Solve.Solved b ->
    Alcotest.(check bool) "fractional root not certified" false a.Session.res_stats.Session.certified;
    Alcotest.(check int) "RES* = cold" b.Solve.res_value a.Session.res_value;
    Alcotest.(check int) "RES* = 22" 22 a.Session.res_value;
    Alcotest.(check bool) "contingency falsifies the query" true
      (Solve.verify_contingency sem q db a.Session.contingency)
  | _ -> Alcotest.fail "fixture: RES* must be solved"

let check_family what got want =
  match (got, want) with
  | Session.Solved a, Session.Solved b ->
    Alcotest.(check int) (what ^ ": optimum") b.Enumerate.opt a.Enumerate.opt;
    Alcotest.(check (list (list int))) (what ^ ": family") b.Enumerate.sets a.Enumerate.sets
  | _ -> Alcotest.fail (what ^ ": both enumerations must be solved")

(* The enumeration pin row skips deleted tuples, whose variables the
   overlay fixes to 0 (their database rows are gone). *)
let test_enumeration_after_delete () =
  let sem = Problem.Set and q = Queries.q2_chain () in
  let db = mid_db () in
  let ses = Session.create sem q db in
  ignore (Session.resilience ses);
  Obs.Sink.install ();
  Fun.protect ~finally:Obs.Sink.uninstall @@ fun () ->
  Session.delete db [ ses ] (List.hd (List.hd (Session.tuple_sets ses)));
  check_family "after delete" (Session.enumerate_resilience ses)
    (Solve.enumerate_resilience sem q db);
  Alcotest.(check int) "no rebuild" 0 (counter "incremental.rebuilds")

(* A stream of fresh-tuple inserts and deletes on a maintained session.
   Asking only RES*, every write stays an overlay and each answer agrees
   with a cold solve.  Then the same kind of writes, each followed by a
   full ranking: every ranking refreshes the counterfactual row, so the
   appended nonzeros soon pass the compaction threshold and a later write
   rebuilds; rankings must match the per-tuple reference throughout. *)
let test_write_stream () =
  let sem = Problem.Set and q = Queries.q2_chain () in
  let db = chain_db ~seed:11 ~count:40 ~domain:10 in
  let ses = Session.create sem q db in
  ignore (Session.resilience ses);
  Obs.Sink.install ();
  Fun.protect ~finally:Obs.Sink.uninstall @@ fun () ->
  let check_res step =
    match (Session.resilience ses, Solve.resilience sem q db) with
    | Session.Solved a, Solve.Solved b ->
      Alcotest.(check int) (Printf.sprintf "step %d: RES* = cold" step) b.Solve.res_value
        a.Session.res_value;
      Alcotest.(check bool) (Printf.sprintf "step %d: contingency valid" step) true
        (Solve.verify_contingency sem q db a.Session.contingency)
    | _ -> Alcotest.failf "step %d: RES* must be solved" step
  in
  let check_ranking step =
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "step %d: ranking = per-tuple reference" step)
      (Harness.reference_ranking ~exact:false sem q db)
      (List.map (fun (t, k, _) -> (t, k)) (Session.ranking ses))
  in
  let victim () = List.hd (List.hd (Session.tuple_sets ses)) in
  let write = function
    | `Ins (rel, args) -> ignore (Session.insert db [ ses ] rel args)
    | `Del -> Session.delete db [ ses ] (victim ())
  in
  let writes base =
    [ `Ins ("R", [| base; 1 |]); `Del; `Ins ("S", [| 1; base |]); `Del; `Ins ("R", [| base + 1; 2 |]); `Del ]
  in
  List.iteri (fun step w -> write w; check_res step) (writes 100);
  Alcotest.(check int) "no rebuild" 0 (counter "incremental.rebuilds");
  Alcotest.(check bool) "witnesses appended" true (counter "incremental.appends" > 0);
  List.iteri (fun step w -> write w; check_ranking step) (writes 200);
  Alcotest.(check bool) "compaction rebuilt" true (counter "incremental.rebuilds" > 0);
  check_family "final" (Session.enumerate_resilience ses) (Solve.enumerate_resilience sem q db)

(* A write names the database it mutates and every session over it.  A
   session over another database is refused before anything is mutated. *)
let test_writes_check_borrow () =
  let sem = Problem.Set and q = Queries.q2_chain () in
  let db = mid_db () and other = mid_db () in
  let ses = Session.create sem q other in
  let before = Database.fingerprint db in
  let victim = (List.hd (Database.tuples db)).Database.id in
  Alcotest.check_raises "insert" (Invalid_argument "Session: another database") (fun () ->
      ignore (Session.insert db [ ses ] "R" [| 900; 901 |]));
  Alcotest.check_raises "delete" (Invalid_argument "Session: another database") (fun () ->
      Session.delete db [ ses ] victim);
  Alcotest.(check bool) "database unmutated" true (Database.fingerprint db = before);
  Alcotest.(check bool) "tuple still live" true (Database.mem db victim);
  Alcotest.(check int) "session's witnesses unmoved"
    (List.length (Eval.unique_tuple_sets (Eval.witnesses q other)))
    (List.length (Session.tuple_sets ses))

let () =
  let open Alcotest in
  run "session"
    [
      ( "warm-starts",
        [
          test_case "warm vs cold, per delta kind" `Quick test_warm_vs_cold_deltas;
          Harness.qtest warm_qcheck;
        ] );
      ( "edge-cases",
        [
          test_case "exogenous tuples skipped" `Quick test_exogenous_skipped;
          test_case "query false" `Quick test_query_false_session;
          test_case "fully exogenous witness" `Quick test_fully_exogenous_witness;
        ] );
      ( "fixtures",
        [
          test_case "sparse fixture: ranking = per-tuple reference" `Quick
            test_sparse_ranking_matches_reference;
          test_case "dense fixture: ranking_par = ranking" `Quick test_dense_ranking_jobs;
          test_case "ranking = per-tuple reference" `Quick test_ranking_matches_reference;
          test_case "dense basis kernel ranks identically" `Quick
            test_dense_basis_ranks_identically;
        ] );
      ( "solve-path",
        [
          test_case "no presolve or structure analysis on any solve path" `Quick
            test_solve_paths_run_encoding_as_built;
          test_case "a ranking builds no warm engine" `Quick test_ranking_builds_no_warm_engine;
        ] );
      ( "overlays",
        [
          test_case "certified answers report their pivots" `Quick test_certified_reports_pivots;
          test_case "appended integer columns enter the certificate check" `Quick
            test_appended_columns_checked;
          test_case "enumeration after a delete" `Quick test_enumeration_after_delete;
          test_case "insert/delete stream stays on overlays" `Quick test_write_stream;
          test_case "writes check the borrowed database" `Quick test_writes_check_borrow;
        ] );
      ("differential", Harness.qtests qcheck_cases);
      ("parallel", Harness.qtests par_qcheck_cases);
    ]
