(* Tests for the core contribution: the unified ILP/LP/MILP encodings, the
   solver facade, the dichotomy analysis of Table 1, and the approximation
   algorithms.  The paper's worked examples (Examples 1–4, 10–13) are all
   reproduced here. *)

open Relalg
open Resilience

let set = Problem.Set
let bag = Problem.Bag

let res_value = function
  | Solve.Solved a -> Some a.Solve.res_value
  | Solve.Query_false -> None
  | Solve.No_contingency -> Some (-1)
  | Solve.Budget_exhausted _ -> Some (-2)

let rsp_value = function
  | Solve.Solved a -> Some a.Solve.rsp_value
  | Solve.Query_false | Solve.No_contingency -> None
  | Solve.Budget_exhausted _ -> Some (-2)

(* --- The paper's worked examples ------------------------------------------- *)

let example1_db () =
  let db = Database.create () in
  List.iter (fun a -> ignore (Database.add db "R" a)) [ [| 1; 1 |]; [| 2; 3 |]; [| 3; 4 |] ];
  db

let test_example_1 () =
  (* ILP[RES*] on the self-join 2-chain: optimum 2 via {r11, r23}. *)
  let db = example1_db () in
  let q = Queries.q2_chain_sj () in
  match Solve.resilience set q db with
  | Solve.Solved a ->
    Alcotest.(check int) "RES = 2" 2 a.Solve.res_value;
    Alcotest.(check bool) "contingency valid" true
      (Solve.verify_contingency set q db a.Solve.contingency)
  | _ -> Alcotest.fail "expected solved"

let test_example_2 () =
  (* Bag semantics with r23 doubled: {r11, r34} now optimal, still 2. *)
  let db = Database.create () in
  let r11 = Database.add db "R" [| 1; 1 |] in
  let r23 = Database.add ~mult:2 db "R" [| 2; 3 |] in
  let r34 = Database.add db "R" [| 3; 4 |] in
  let q = Queries.q2_chain_sj () in
  match Solve.resilience bag q db with
  | Solve.Solved a ->
    Alcotest.(check int) "RES = 2" 2 a.Solve.res_value;
    Alcotest.(check (list int)) "avoids the doubled tuple" [ r11; r34 ]
      (List.sort compare a.Solve.contingency);
    ignore r23
  | _ -> Alcotest.fail "expected solved"

let example3_db () =
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 1 |]);
  let s11 = Database.add db "S" [| 1; 1 |] in
  ignore (Database.add db "S" [| 1; 2 |]);
  ignore (Database.add db "S" [| 1; 3 |]);
  (db, s11)

let test_example_3 () =
  (* RSP of s11 under the 2-chain: 2 (delete s12, s13; r11 is forbidden). *)
  let db, s11 = example3_db () in
  let q = Queries.q2_chain () in
  match Solve.responsibility set q db s11 with
  | Solve.Solved a ->
    Alcotest.(check int) "RSP = 2" 2 a.Solve.rsp_value;
    Alcotest.(check bool) "valid responsibility set" true
      (Solve.verify_responsibility_set q db s11 a.Solve.responsibility_set)
  | _ -> Alcotest.fail "expected solved"

let test_example_4 () =
  (* MILP[RSP*] equals the ILP here (Theorem 8.11: the 2-chain is linear). *)
  let db, s11 = example3_db () in
  let q = Queries.q2_chain () in
  Alcotest.(check (option int)) "MILP = 2" (Some 2)
    (rsp_value (Solve.responsibility ~relaxation:Encode.Milp set q db s11));
  (* LP[RSP*] is a lower bound but not exact in general. *)
  match Solve.responsibility_lp set q db s11 with
  | Some v -> Alcotest.(check bool) "LP lower bound" true (v <= 2.0 +. 1e-6)
  | None -> Alcotest.fail "LP should solve"

let test_footnote_5 () =
  (* Witnesses {{r11}, {r11, r12}}: r12 cannot be made counterfactual. *)
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 1 |]);
  let r12 = Database.add db "R" [| 1; 2 |] in
  let q = Cq_parser.parse "R(x,x)" in
  match Solve.responsibility set q db r12 with
  | Solve.No_contingency -> ()
  | _ -> Alcotest.fail "expected No_contingency"

let test_query_false () =
  let db = Database.create () in
  let r12 = Database.add db "R" [| 1; 2 |] in
  let q = Queries.q2_chain () in
  (match Solve.resilience set q db with
  | Solve.Query_false -> ()
  | _ -> Alcotest.fail "expected Query_false");
  (* Every responsibility path agrees, the cold enumeration included. *)
  (match Solve.responsibility set q db r12 with
  | Solve.Query_false -> ()
  | _ -> Alcotest.fail "expected Query_false (responsibility)");
  match Enumerate.responsibility_cold set q db r12 with
  | Enumerate.Query_false -> ()
  | _ -> Alcotest.fail "expected Query_false (cold enumeration)"

let test_exogenous_blocks () =
  let db = Database.create () in
  ignore (Database.add ~exo:true db "R" [| 1; 2 |]);
  ignore (Database.add ~exo:true db "S" [| 2; 3 |]);
  let q = Queries.q2_chain () in
  match Solve.resilience set q db with
  | Solve.No_contingency -> ()
  | _ -> Alcotest.fail "expected No_contingency"

let test_exogenous_atom () =
  (* A! atom: its tuples never enter contingency sets. *)
  let db = Database.create () in
  ignore (Database.add db "A" [| 1 |]);
  ignore (Database.add db "R" [| 1; 2 |]);
  let q = Cq_parser.parse "A!(x), R(x,y)" in
  match Solve.resilience set q db with
  | Solve.Solved a ->
    Alcotest.(check int) "RES 1" 1 a.Solve.res_value;
    let rel = (Database.tuple db (List.hd a.Solve.contingency)).Database.rel in
    Alcotest.(check string) "deleted from R" "R" rel
  | _ -> Alcotest.fail "expected solved"

(* --- Appendix B examples ------------------------------------------------------- *)

let test_movies () =
  let m = Datagen.Workloads.movies () in
  (match Solve.resilience set m.Datagen.Workloads.oscar_triangle m.Datagen.Workloads.movie_db with
  | Solve.Solved a -> Alcotest.(check int) "Oscar triangle RES" 1 a.Solve.res_value
  | _ -> Alcotest.fail "movies resilience");
  (* Example 11: the Oscar tuple is counterfactual (responsibility set empty). *)
  match
    Solve.responsibility set m.Datagen.Workloads.oscar_triangle m.Datagen.Workloads.movie_db
      m.Datagen.Workloads.mcdormand_oscar
  with
  | Solve.Solved a -> Alcotest.(check int) "Oscar RSP" 0 a.Solve.rsp_value
  | _ -> Alcotest.fail "movies responsibility"

let test_migration () =
  let mig = Datagen.Workloads.migration () in
  let db = mig.Datagen.Workloads.server_db in
  let q = mig.Datagen.Workloads.usage_query in
  (match Solve.resilience set q db with
  | Solve.Solved a ->
    Alcotest.(check int) "RES 2" 2 a.Solve.res_value;
    let rels =
      List.map (fun tid -> (Database.tuple db tid).Database.rel) a.Solve.contingency
      |> List.sort compare
    in
    (* Example 12: transfer Alice (Users) + migrate the DB requests. *)
    Alcotest.(check (list string)) "explanation" [ "Requests"; "Users" ] rels
  | _ -> Alcotest.fail "migration resilience");
  (* Example 13: u1 and r3 both have contingency sets of size 1. *)
  List.iter
    (fun tid ->
      match Solve.responsibility set q db tid with
      | Solve.Solved a -> Alcotest.(check int) "RSP 1" 1 a.Solve.rsp_value
      | _ -> Alcotest.fail "migration responsibility")
    [ mig.Datagen.Workloads.alice; mig.Datagen.Workloads.db_requests ]

(* --- Analysis: Table 1 --------------------------------------------------------- *)

let check_res_complexity name q expected_set expected_bag =
  Alcotest.(check bool)
    (name ^ " RES set")
    true
    (Analysis.res_complexity set q = expected_set);
  Alcotest.(check bool)
    (name ^ " RES bag")
    true
    (Analysis.res_complexity bag q = expected_bag)

let test_table1_res () =
  let p = Analysis.Ptime and n = Analysis.Npc in
  check_res_complexity "Q2chain" (Queries.q2_chain ()) p p;
  check_res_complexity "Q3chain" (Queries.q3_chain ()) p p;
  check_res_complexity "Q2star" (Queries.q2_star ()) p p;
  check_res_complexity "Q3star" (Queries.q3_star ()) n n;
  check_res_complexity "Qtriangle" (Queries.q_triangle ()) n n;
  check_res_complexity "QtriangleA" (Queries.q_triangle_a ()) p n;
  check_res_complexity "QtriangleAB" (Queries.q_triangle_ab ()) p n;
  check_res_complexity "Qconfluence" (Queries.q_confluence ()) p p;
  (* self-joins proven hard by certificates *)
  Alcotest.(check bool) "SJ chain hard" true
    (Analysis.res_complexity set (Queries.q2_chain_sj ()) = n);
  Alcotest.(check bool) "z6 hard" true (Analysis.res_complexity set (Queries.q_z6 ()) = n)

let test_table1_rsp () =
  let p = Analysis.Ptime and n = Analysis.Npc in
  let rsp sem q i = Analysis.rsp_complexity sem q ~t_atom:i in
  (* linear queries: everything PTIME *)
  let q2 = Queries.q2_chain () in
  Alcotest.(check bool) "chain R set" true (rsp set q2 0 = p);
  Alcotest.(check bool) "chain R bag" true (rsp bag q2 0 = p);
  (* Q triangle-unary: only tuples of the dominating A atom are PTIME (set) *)
  let qa = Queries.q_triangle_a () in
  Alcotest.(check bool) "A tuples easy" true (rsp set qa 0 = p);
  Alcotest.(check bool) "R tuples hard" true (rsp set qa 1 = n);
  Alcotest.(check bool) "S tuples hard" true (rsp set qa 2 = n);
  Alcotest.(check bool) "bag all hard" true (rsp bag qa 0 = n);
  (* Q triangle-binary: fully deactivated, all PTIME under set *)
  let qab = Queries.q_triangle_ab () in
  for i = 0 to 4 do
    Alcotest.(check bool) "AB set easy" true (rsp set qab i = p);
    Alcotest.(check bool) "AB bag hard" true (rsp bag qab i = n)
  done;
  (* active triad: everything hard *)
  let q3s = Queries.q3_star () in
  Alcotest.(check bool) "3star hard" true (rsp set q3s 0 = n)

let test_triad_structure () =
  let triads q = Analysis.triads q in
  Alcotest.(check int) "chain has no triad" 0 (List.length (triads (Queries.q3_chain ())));
  (match triads (Queries.q_triangle ()) with
  | [ { Analysis.status = Analysis.Active; _ } ] -> ()
  | _ -> Alcotest.fail "triangle: one active triad");
  (match triads (Queries.q_triangle_a ()) with
  | [ { Analysis.status = Analysis.Deactivated; _ } ] -> ()
  | _ -> Alcotest.fail "triangle-A: one deactivated triad");
  (match triads (Queries.q_triangle_ab ()) with
  | [ { Analysis.status = Analysis.Fully_deactivated; _ } ] -> ()
  | _ -> Alcotest.fail "triangle-AB: one fully deactivated triad");
  match triads (Queries.q3_star ()) with
  | [ { Analysis.status = Analysis.Active; _ } ] -> ()
  | _ -> Alcotest.fail "3-star: one active triad"

let test_domination () =
  let qa = Queries.q_triangle_a () in
  (* A(x) dominates R(x,y) and T(z,x) *)
  Alcotest.(check bool) "A dominates R" true (Analysis.dominates qa 0 1);
  Alcotest.(check bool) "A dominates T" true (Analysis.dominates qa 0 3);
  Alcotest.(check bool) "A does not dominate S" false (Analysis.dominates qa 0 2);
  Alcotest.(check bool) "R does not dominate A" false (Analysis.dominates qa 1 0);
  Alcotest.(check (list int)) "dominated atoms" [ 1; 3 ] (Analysis.dominated_atoms qa)

let test_full_domination () =
  let qab = Queries.q_triangle_ab () in
  (* T(z,x) is fully dominated by A(x) and B(z) *)
  Alcotest.(check bool) "T fully dominated" true (Analysis.fully_dominated qab 3);
  Alcotest.(check bool) "S not fully dominated" false (Analysis.fully_dominated qab 2);
  let qa = Queries.q_triangle_a () in
  Alcotest.(check bool) "R dominated but not fully" false (Analysis.fully_dominated qa 1)

let test_solitary () =
  (* In Q2star R(x), S(y), W(x,y): within W neither variable is solitary; in
     R the variable x reaches W directly, so it is not solitary either. *)
  let q = Queries.q2_star () in
  Alcotest.(check bool) "x in R not solitary" false (Analysis.solitary q "x" 0);
  Alcotest.(check bool) "x in W not solitary" false (Analysis.solitary q "x" 2);
  (* Solitary example: W(x,y), R(x) — y cannot leave W without crossing x. *)
  let q2 = Cq_parser.parse "W(x,y), R(x)" in
  Alcotest.(check bool) "y solitary in W" true (Analysis.solitary q2 "y" 0)

let test_linearity_agrees_with_triads () =
  (* The structural interval-order notion and triad-freeness coincide on all
     named queries. *)
  List.iter
    (fun (name, q) ->
      Alcotest.(check bool) name (Analysis.is_linear q) (Netflow.Linearize.is_linear q))
    (List.filter (fun (_, q) -> Cq.self_join_free q) (Queries.all_named ()))

(* --- Unified solvers: differential properties ------------------------------------ *)

let random_db = Harness.random_db

let prop_ilp_matches_bruteforce sem name qstr rels =
  QCheck.Test.make ~name ~count:120 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Cq_parser.parse qstr in
      let db = random_db rng rels 4 3 ~max_bag:2 in
      res_value (Solve.resilience sem q db) = Bruteforce.resilience sem q db
      |> fun ok ->
      ok
      && Option.map fst (Hitting_set.resilience sem q db) = Bruteforce.resilience sem q db)

let prop_lp_equals_ilp_easy =
  (* Theorems 8.6/8.7: LP[RES*] = RES* on PTIME queries, checked on random
     instances of the linear 2-chain (set+bag) and the linearizable
     triangle-unary (set). *)
  QCheck.Test.make ~name:"LP[RES*] = ILP[RES*] on easy queries" ~count:100
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let check sem qstr rels =
        let q = Cq_parser.parse qstr in
        let db = random_db rng rels 5 3 ~max_bag:2 in
        match (Solve.resilience sem q db, Solve.resilience_lp sem q db) with
        | Solve.Solved a, Some lp -> Float.abs (float_of_int a.Solve.res_value -. lp) < 1e-6
        | Solve.Query_false, None -> true
        | _ -> false
      in
      check set "R(x,y), S(y,z)" [ ("R", 2); ("S", 2) ]
      && check bag "R(x,y), S(y,z)" [ ("R", 2); ("S", 2) ]
      && check set "A(x), R(x,y), S(y,z), T(z,x)" [ ("A", 1); ("R", 2); ("S", 2); ("T", 2) ])

let prop_milp_equals_ilp_easy_rsp =
  (* Theorem 8.11 on the linear 2-chain. *)
  QCheck.Test.make ~name:"MILP[RSP*] = ILP[RSP*] on the 2-chain" ~count:80
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q2_chain () in
      let db = random_db rng [ ("R", 2); ("S", 2) ] 4 3 ~max_bag:1 in
      List.for_all
        (fun info ->
          let t = info.Database.id in
          rsp_value (Solve.responsibility ~relaxation:Encode.Milp set q db t)
          = Bruteforce.responsibility set q db t)
        (Database.tuples db))

let prop_rsp_ilp_matches_bruteforce =
  QCheck.Test.make ~name:"ILP[RSP*] = brute force (triangle, set+bag)" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q_triangle () in
      let db = random_db rng [ ("R", 2); ("S", 2); ("T", 2) ] 3 3 ~max_bag:2 in
      List.for_all
        (fun sem ->
          List.for_all
            (fun info ->
              let t = info.Database.id in
              rsp_value (Solve.responsibility sem q db t) = Bruteforce.responsibility sem q db t)
            (Database.tuples db))
        [ set; bag ])

let prop_set_duplication_invariant =
  (* Under set semantics, multiplicities are irrelevant (Lemma 4.1 corollary). *)
  QCheck.Test.make ~name:"set semantics ignores multiplicities" ~count:80
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q2_chain () in
      let db = random_db rng [ ("R", 2); ("S", 2) ] 5 3 ~max_bag:1 in
      let db2 = Database.copy db in
      List.iter
        (fun info -> Database.set_mult db2 info.Database.id (1 + Random.State.int rng 3))
        (Database.tuples db2);
      res_value (Solve.resilience set q db) = res_value (Solve.resilience set q db2))

let prop_res_monotone =
  (* Removing a tuple never increases resilience. *)
  QCheck.Test.make ~name:"resilience is monotone under deletion" ~count:80
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q_triangle () in
      let db = random_db rng [ ("R", 2); ("S", 2); ("T", 2) ] 4 3 ~max_bag:1 in
      match Bruteforce.resilience set q db with
      | None -> true
      | Some v -> (
        let tuples = Database.tuples db in
        let victim = List.nth tuples (Random.State.int rng (List.length tuples)) in
        let db' = Database.restrict db (fun info -> info.Database.id <> victim.Database.id) in
        match Bruteforce.resilience set q db' with Some v' -> v' <= v | None -> true))

(* --- Approximations ---------------------------------------------------------------- *)

let prop_lp_rounding_m_factor =
  (* Theorem 9.1: valid contingency, within m * OPT. *)
  QCheck.Test.make ~name:"LP rounding: valid and within m*OPT" ~count:80
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q_triangle () in
      let m = Array.length q.Cq.atoms in
      let db = random_db rng [ ("R", 2); ("S", 2); ("T", 2) ] 4 3 ~max_bag:2 in
      List.for_all
        (fun sem ->
          match Bruteforce.resilience sem q db with
          | None -> true
          | Some exact -> (
            match Approx.lp_rounding_res sem q db with
            | Some { Approx.value; tuples } ->
              value >= exact && value <= m * exact
              && Solve.verify_contingency sem q db tuples
            | None -> false))
        [ set; bag ])

let prop_lp_rounding_rsp =
  QCheck.Test.make ~name:"LP rounding for RSP: valid upper bound" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q2_chain () in
      let db = random_db rng [ ("R", 2); ("S", 2) ] 4 3 ~max_bag:1 in
      List.for_all
        (fun info ->
          let t = info.Database.id in
          match Bruteforce.responsibility set q db t with
          | None -> true
          | Some exact -> (
            match Approx.lp_rounding_rsp set q db t with
            | Some { Approx.value; tuples } ->
              value >= exact && Solve.verify_responsibility_set q db t tuples
            | None -> false))
        (Database.tuples db))

let prop_flow_approx_rsp_upper_bound =
  QCheck.Test.make ~name:"Flow-CT/CW RSP upper bounds on the triangle" ~count:40
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q_triangle () in
      let db = random_db rng [ ("R", 2); ("S", 2); ("T", 2) ] 3 3 ~max_bag:1 in
      List.for_all
        (fun info ->
          let t = info.Database.id in
          match Bruteforce.responsibility set q db t with
          | None -> true
          | Some exact ->
            let ok = function
              | Some { Approx.value; _ } -> value >= exact
              | None -> true (* flow approximations may fail to preserve t *)
            in
            ok (Approx.flow_ct_rsp set q db t) && ok (Approx.flow_cw_rsp set q db t))
        (Database.tuples db))

(* --- LP integrality observations (Result 2 / Setting 5) ---------------------------- *)

let test_root_integral_on_easy () =
  let rng = Random.State.make [| 11 |] in
  let q = Queries.q2_chain () in
  let db = random_db rng [ ("R", 2); ("S", 2) ] 20 6 ~max_bag:1 in
  match Solve.resilience set q db with
  | Solve.Solved a ->
    Alcotest.(check bool) "root integral" true a.Solve.res_stats.Solve.root_integral;
    (* the integral root is now accepted as a certificate: the solve never
       enters branch-and-bound at all *)
    Alcotest.(check bool) "certified" true a.Solve.res_stats.Solve.certified;
    Alcotest.(check int) "no branching" 0 a.Solve.res_stats.Solve.nodes
  | _ -> Alcotest.fail "expected solved"

let test_fractional_on_composed_hard_instance () =
  (* The vertex-cover composition of the SJ-chain certificate over an odd
     cycle has LP < ILP (Setting 5's adversarial instance). *)
  let q = Queries.q2_chain_sj () in
  match Ijp.Search.find q with
  | None -> Alcotest.fail "certificate should exist"
  | Some (jp, _) ->
    let edges = Ijp.Compose.odd_cycle 1 in
    let db = Ijp.Compose.vertex_cover_instance jp ~edges in
    let lp = Option.get (Solve.resilience_lp set q db) in
    (match Solve.resilience set q db with
    | Solve.Solved a ->
      Alcotest.(check int) "RES = VC + m(c-1)" (Ijp.Compose.expected_resilience jp ~edges ~vertex_cover:2)
        a.Solve.res_value;
      Alcotest.(check bool) "LP strictly below ILP" true
        (lp < float_of_int a.Solve.res_value -. 0.25)
    | _ -> Alcotest.fail "expected solved")

(* Program shapes, straight from Sections 4 and 5. *)

let test_encode_res_shape () =
  (* Example 1's program: 3 variables, 2 constraints (witness (1,1,1) uses a
     single tuple). *)
  let db = example1_db () in
  match Encode.res Encode.Ilp set (Queries.q2_chain_sj ()) db with
  | Encode.Encoded enc ->
    Alcotest.(check int) "3 tuple variables" 3 (Lp.Model.num_vars enc.Encode.model);
    Alcotest.(check int) "2 covering rows" 2 (Lp.Model.num_constrs enc.Encode.model);
    Alcotest.(check int) "no witness vars" 0 (List.length enc.Encode.witness_vars);
    (* all weights 1 under set semantics *)
    List.iter
      (fun (v, _) -> Alcotest.(check int) "unit weight" 1 (Lp.Model.objective enc.Encode.model v))
      enc.Encode.tuple_of_var
  | _ -> Alcotest.fail "encode failed"

let test_encode_res_bag_objective () =
  (* Example 2: only the objective changes under bags. *)
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 1 |]);
  let r23 = Database.add ~mult:2 db "R" [| 2; 3 |] in
  ignore (Database.add db "R" [| 3; 4 |]);
  match
    ( Encode.res Encode.Ilp set (Queries.q2_chain_sj ()) db,
      Encode.res Encode.Ilp bag (Queries.q2_chain_sj ()) db )
  with
  | Encode.Encoded s_enc, Encode.Encoded b_enc ->
    Alcotest.(check int) "same rows" (Lp.Model.num_constrs s_enc.Encode.model)
      (Lp.Model.num_constrs b_enc.Encode.model);
    let weight enc tid =
      let v = Hashtbl.find enc.Encode.var_of_tuple tid in
      Lp.Model.objective enc.Encode.model v
    in
    Alcotest.(check int) "set weight" 1 (weight s_enc r23);
    Alcotest.(check int) "bag weight = multiplicity" 2 (weight b_enc r23)
  | _ -> Alcotest.fail "encode failed"

let test_encode_rsp_shape () =
  (* Example 3's program: vars X[r11], X[s12], X[s13] + one witness
     indicator; 2 covering + 1 tracking + 1 counterfactual constraints. *)
  let db, s11 = example3_db () in
  match Encode.rsp Encode.Ilp set (Queries.q2_chain ()) db s11 with
  | Encode.Encoded enc ->
    Alcotest.(check int) "3 tuple vars + 1 witness var" 4 (Lp.Model.num_vars enc.Encode.model);
    Alcotest.(check int) "one witness indicator" 1 (List.length enc.Encode.witness_vars);
    Alcotest.(check int) "4 constraints" 4 (Lp.Model.num_constrs enc.Encode.model);
    (* the responsibility tuple itself gets no variable *)
    Alcotest.(check bool) "t untracked" false (Hashtbl.mem enc.Encode.var_of_tuple s11)
  | _ -> Alcotest.fail "encode failed"

let test_encode_relaxations () =
  let db, s11 = example3_db () in
  let integer_count relax =
    match Encode.rsp relax set (Queries.q2_chain ()) db s11 with
    | Encode.Encoded enc -> List.length (Lp.Model.integer_vars enc.Encode.model)
    | _ -> -1
  in
  Alcotest.(check int) "ILP: all 4 integral" 4 (integer_count Encode.Ilp);
  Alcotest.(check int) "MILP: only the witness indicator" 1 (integer_count Encode.Milp);
  Alcotest.(check int) "LP: none" 0 (integer_count Encode.Lp)

let test_responsibility_ranking () =
  let m = Datagen.Workloads.movies () in
  let ranked =
    Solve.responsibility_ranking set m.Datagen.Workloads.oscar_triangle
      m.Datagen.Workloads.movie_db
  in
  (* two counterfactual causes (k=0) lead; six partial causes (k=2) follow *)
  Alcotest.(check int) "eight causes" 8 (List.length ranked);
  (match ranked with
  | (_, k0, rho0) :: _ ->
    Alcotest.(check int) "top is counterfactual" 0 k0;
    Alcotest.(check (float 1e-9)) "responsibility 1" 1.0 rho0
  | [] -> Alcotest.fail "empty ranking");
  let sorted = List.map (fun (_, k, _) -> k) ranked in
  Alcotest.(check (list int)) "ascending contingency sizes" (List.sort compare sorted) sorted

let prop_res_to_rsp_reduction =
  (* Theorem 8.15: adding one fresh disjoint witness w_r and asking for the
     responsibility of one of its tuples yields exactly RES of the original
     instance, under both semantics. *)
  QCheck.Test.make ~name:"Theorem 8.15: RSP(D + fresh witness, t) = RES(D)" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q2_chain () in
      let db = random_db rng [ ("R", 2); ("S", 2) ] 4 3 ~max_bag:2 in
      List.for_all
        (fun sem ->
          match Bruteforce.resilience sem q db with
          | None -> true
          | Some res -> (
            let db' = Database.copy db in
            let t = Database.add db' "R" [| 90; 91 |] in
            ignore (Database.add db' "S" [| 91; 92 |]);
            match Solve.responsibility sem q db' t with
            | Solve.Solved a -> a.Solve.rsp_value = res
            | _ -> false))
        [ set; bag ])

let prop_lp_equals_ilp_more_easy_queries =
  (* Theorems 8.6/8.7 on the remaining PTIME queries of Table 1. *)
  QCheck.Test.make ~name:"LP[RES*] = ILP[RES*] on 3-chain / 2-star / QtriangleAB" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let check sem qstr rels =
        let q = Cq_parser.parse qstr in
        let db = random_db rng rels 4 3 ~max_bag:2 in
        match (Solve.resilience sem q db, Solve.resilience_lp sem q db) with
        | Solve.Solved a, Some lp -> Float.abs (float_of_int a.Solve.res_value -. lp) < 1e-6
        | Solve.Query_false, None -> true
        | _ -> false
      in
      check set "R(x,y), S(y,z), T(z,u)" [ ("R", 2); ("S", 2); ("T", 2) ]
      && check bag "R(x,y), S(y,z), T(z,u)" [ ("R", 2); ("S", 2); ("T", 2) ]
      && check set "R(x), S(y), W(x,y)" [ ("R", 1); ("S", 1); ("W", 2) ]
      && check bag "R(x), S(y), W(x,y)" [ ("R", 1); ("S", 1); ("W", 2) ]
      && check set "A(x), R(x,y), S(y,z), T(z,x), B(z)"
           [ ("A", 1); ("R", 2); ("S", 2); ("T", 2); ("B", 1) ])

let test_lp_format_export () =
  let db = example1_db () in
  match Encode.res Encode.Ilp set (Queries.q2_chain_sj ()) db with
  | Encode.Encoded enc ->
    let text = Lp.Model.to_lp_format enc.Encode.model in
    let contains needle =
      let nl = String.length needle and hl = String.length text in
      let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
      go 0
    in
    List.iter
      (fun part -> Alcotest.(check bool) part true (contains part))
      [ "Minimize"; "Subject To"; "Bounds"; "Generals"; "End"; ">= 1" ]
  | _ -> Alcotest.fail "encode failed"

(* --- Encoding golden ---------------------------------------------------------- *)

(* The exact programs the encoders write on the paper's Examples 1–4: column
   order, names, bounds and integrality, row order, and the tuple and witness
   bookkeeping the solvers read answers back through. *)
let vars_text vs = String.concat " " (List.map string_of_int vs)

let tuples_text tv =
  String.concat " " (List.map (fun (v, tid) -> Printf.sprintf "%d:%d" v tid) tv)

let encoding_text = function
  | Encode.Trivial k -> Printf.sprintf "trivial %d\n" k
  | Encode.Impossible -> "impossible\n"
  | Encode.Encoded enc ->
    Lp.Model.to_lp_format enc.Encode.model
    ^ Printf.sprintf "tuples %s | witnesses %s\n"
        (tuples_text enc.Encode.tuple_of_var)
        (vars_text enc.Encode.witness_vars)

let shared_text = function
  | Encode.Shared_trivial -> "trivial\n"
  | Encode.Shared_impossible -> "impossible\n"
  | Encode.Shared s ->
    let fz = s.Encode.sfz in
    let b = Buffer.create 512 in
    for v = 0 to Lp.Frozen.num_vars fz - 1 do
      Printf.bprintf b "col %d %s obj %d upper %s%s\n" v (Lp.Frozen.var_name fz v)
        (Lp.Frozen.objective fz v)
        (match Lp.Frozen.upper fz v with Some u -> string_of_int u | None -> "inf")
        (if Lp.Frozen.is_integer fz v then " integer" else "")
    done;
    for i = 0 to Lp.Frozen.num_rows fz - 1 do
      Printf.bprintf b "row %d:%s %s %d\n" i
        (String.concat ""
           (List.map (fun (v, c) -> Printf.sprintf " %+d*%s" c (Lp.Frozen.var_name fz v))
              (Lp.Frozen.row_expr fz i)))
        (match Lp.Frozen.row_sense fz i with
        | Lp.Model.Geq -> ">="
        | Lp.Model.Leq -> "<="
        | Lp.Model.Eq -> "=")
        (Lp.Frozen.row_rhs fz i)
    done;
    Printf.bprintf b "tuples %s | witnesses %s | z %d\n"
      (tuples_text s.Encode.stuple_of_var)
      (String.concat " "
         (List.map
            (fun (w, set) -> Printf.sprintf "%d:[%s]" w (vars_text set))
            s.Encode.switnesses))
      s.Encode.sz;
    Buffer.contents b

let encoding_golden_text () =
  let b = Buffer.create 4096 in
  let ex2_db () =
    let db = Database.create () in
    ignore (Database.add db "R" [| 1; 1 |]);
    ignore (Database.add ~mult:2 db "R" [| 2; 3 |]);
    ignore (Database.add db "R" [| 3; 4 |]);
    db
  in
  let ex3_db () = fst (example3_db ()) in
  let ex3_exo_db () =
    let db = Database.create () in
    ignore (Database.add db "R" [| 1; 1 |]);
    ignore (Database.add db "S" [| 1; 1 |]);
    ignore (Database.add ~exo:true db "S" [| 1; 2 |]);
    ignore (Database.add db "S" [| 1; 3 |]);
    db
  in
  (* (label, semantics, query, instance, responsibility tuple) *)
  let examples =
    [
      ("Example 1", set, Queries.q2_chain_sj (), example1_db (), 1);
      ("Example 2", bag, Queries.q2_chain_sj (), ex2_db (), 1);
      ("Example 3", set, Queries.q2_chain (), ex3_db (), 1);
      ("Example 4", set, Queries.q2_chain (), ex3_db (), 2);
      ("Example 3, S(1,2) exogenous", set, Queries.q2_chain (), ex3_exo_db (), 1);
    ]
  in
  List.iter
    (fun (label, sem, q, db, t) ->
      Printf.bprintf b "== %s: ILP[RES*]\n%s" label (encoding_text (Encode.res Encode.Ilp sem q db));
      List.iter
        (fun (name, relax) ->
          Printf.bprintf b "== %s: %s[RSP*] of tuple %d\n%s" label name t
            (encoding_text (Encode.rsp relax sem q db t)))
        [ ("ILP", Encode.Ilp); ("MILP", Encode.Milp) ])
    examples;
  List.iter
    (fun (label, sem, q, db) ->
      Printf.bprintf b "== %s: shared\n%s" label
        (shared_text (Encode.shared_of_sets sem q db (Eval.unique_tuple_sets (Eval.witnesses q db)))))
    [ ("Example 1", set, Queries.q2_chain_sj (), example1_db ());
      ("Example 3", set, Queries.q2_chain (), ex3_db ());
      ("Example 3, S(1,2) exogenous", set, Queries.q2_chain (), ex3_exo_db ()) ];
  Buffer.contents b

let encoding_golden =
  {|== Example 1: ILP[RES*]
Minimize
 obj: X_R_1 + X_R_2 + X_R_0
Subject To
 c0: X_R_1 + X_R_2 >= 1
 c1: X_R_0 >= 1
Bounds
 0 <= X_R_1 <= 1
 0 <= X_R_2 <= 1
 0 <= X_R_0 <= 1
Generals
 X_R_1
 X_R_2
 X_R_0
End
tuples 0:1 1:2 2:0 | witnesses 
== Example 1: ILP[RSP*] of tuple 1
Minimize
 obj: X_R_0
Subject To
 c0: X_R_0 >= 1
 c1: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= W_0 <= 1
Generals
 X_R_0
 W_0
End
tuples 0:0 | witnesses 1
== Example 1: MILP[RSP*] of tuple 1
Minimize
 obj: X_R_0
Subject To
 c0: X_R_0 >= 1
 c1: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= W_0 <= 1
Generals
 W_0
End
tuples 0:0 | witnesses 1
== Example 2: ILP[RES*]
Minimize
 obj: 2 X_R_1 + X_R_2 + X_R_0
Subject To
 c0: X_R_1 + X_R_2 >= 1
 c1: X_R_0 >= 1
Bounds
 0 <= X_R_1 <= 1
 0 <= X_R_2 <= 1
 0 <= X_R_0 <= 1
Generals
 X_R_1
 X_R_2
 X_R_0
End
tuples 0:1 1:2 2:0 | witnesses 
== Example 2: ILP[RSP*] of tuple 1
Minimize
 obj: X_R_0
Subject To
 c0: X_R_0 >= 1
 c1: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= W_0 <= 1
Generals
 X_R_0
 W_0
End
tuples 0:0 | witnesses 1
== Example 2: MILP[RSP*] of tuple 1
Minimize
 obj: X_R_0
Subject To
 c0: X_R_0 >= 1
 c1: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= W_0 <= 1
Generals
 W_0
End
tuples 0:0 | witnesses 1
== Example 3: ILP[RES*]
Minimize
 obj: X_R_0 + X_S_3 + X_S_2 + X_S_1
Subject To
 c0: X_R_0 + X_S_3 >= 1
 c1: X_R_0 + X_S_2 >= 1
 c2: X_R_0 + X_S_1 >= 1
Bounds
 0 <= X_R_0 <= 1
 0 <= X_S_3 <= 1
 0 <= X_S_2 <= 1
 0 <= X_S_1 <= 1
Generals
 X_R_0
 X_S_3
 X_S_2
 X_S_1
End
tuples 0:0 1:3 2:2 3:1 | witnesses 
== Example 3: ILP[RSP*] of tuple 1
Minimize
 obj: X_R_0 + X_S_3 + X_S_2
Subject To
 c0: X_R_0 + X_S_3 >= 1
 c1: X_R_0 + X_S_2 >= 1
 c2: - X_R_0 + W_0 >= 0
 c3: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= X_S_3 <= 1
 0 <= X_S_2 <= 1
 0 <= W_0 <= 1
Generals
 X_R_0
 X_S_3
 X_S_2
 W_0
End
tuples 0:0 1:3 2:2 | witnesses 3
== Example 3: MILP[RSP*] of tuple 1
Minimize
 obj: X_R_0 + X_S_3 + X_S_2
Subject To
 c0: X_R_0 + X_S_3 >= 1
 c1: X_R_0 + X_S_2 >= 1
 c2: - X_R_0 + W_0 >= 0
 c3: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= X_S_3 <= 1
 0 <= X_S_2 <= 1
 0 <= W_0 <= 1
Generals
 W_0
End
tuples 0:0 1:3 2:2 | witnesses 3
== Example 4: ILP[RES*]
Minimize
 obj: X_R_0 + X_S_3 + X_S_2 + X_S_1
Subject To
 c0: X_R_0 + X_S_3 >= 1
 c1: X_R_0 + X_S_2 >= 1
 c2: X_R_0 + X_S_1 >= 1
Bounds
 0 <= X_R_0 <= 1
 0 <= X_S_3 <= 1
 0 <= X_S_2 <= 1
 0 <= X_S_1 <= 1
Generals
 X_R_0
 X_S_3
 X_S_2
 X_S_1
End
tuples 0:0 1:3 2:2 3:1 | witnesses 
== Example 4: ILP[RSP*] of tuple 2
Minimize
 obj: X_R_0 + X_S_3 + X_S_1
Subject To
 c0: X_R_0 + X_S_3 >= 1
 c1: X_R_0 + X_S_1 >= 1
 c2: - X_R_0 + W_0 >= 0
 c3: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= X_S_3 <= 1
 0 <= X_S_1 <= 1
 0 <= W_0 <= 1
Generals
 X_R_0
 X_S_3
 X_S_1
 W_0
End
tuples 0:0 1:3 2:1 | witnesses 3
== Example 4: MILP[RSP*] of tuple 2
Minimize
 obj: X_R_0 + X_S_3 + X_S_1
Subject To
 c0: X_R_0 + X_S_3 >= 1
 c1: X_R_0 + X_S_1 >= 1
 c2: - X_R_0 + W_0 >= 0
 c3: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= X_S_3 <= 1
 0 <= X_S_1 <= 1
 0 <= W_0 <= 1
Generals
 W_0
End
tuples 0:0 1:3 2:1 | witnesses 3
== Example 3, S(1,2) exogenous: ILP[RES*]
Minimize
 obj: X_R_0 + X_S_3 + X_S_1
Subject To
 c0: X_R_0 + X_S_3 >= 1
 c1: X_R_0 >= 1
 c2: X_R_0 + X_S_1 >= 1
Bounds
 0 <= X_R_0 <= 1
 0 <= X_S_3 <= 1
 0 <= X_S_1 <= 1
Generals
 X_R_0
 X_S_3
 X_S_1
End
tuples 0:0 1:3 2:1 | witnesses 
== Example 3, S(1,2) exogenous: ILP[RSP*] of tuple 1
Minimize
 obj: X_R_0 + X_S_3
Subject To
 c0: X_R_0 + X_S_3 >= 1
 c1: X_R_0 >= 1
 c2: - X_R_0 + W_0 >= 0
 c3: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= X_S_3 <= 1
 0 <= W_0 <= 1
Generals
 X_R_0
 X_S_3
 W_0
End
tuples 0:0 1:3 | witnesses 2
== Example 3, S(1,2) exogenous: MILP[RSP*] of tuple 1
Minimize
 obj: X_R_0 + X_S_3
Subject To
 c0: X_R_0 + X_S_3 >= 1
 c1: X_R_0 >= 1
 c2: - X_R_0 + W_0 >= 0
 c3: W_0 <= 0
Bounds
 0 <= X_R_0 <= 1
 0 <= X_S_3 <= 1
 0 <= W_0 <= 1
Generals
 W_0
End
tuples 0:0 1:3 | witnesses 2
== Example 1: shared
col 0 W_0 obj 0 upper 1 integer
col 1 X_R_1 obj 1 upper 1 integer
col 2 X_R_2 obj 1 upper 1 integer
col 3 W_1 obj 0 upper 1 integer
col 4 X_R_0 obj 1 upper 1 integer
col 5 Z obj 0 upper 1
row 0: +1*W_0 -1*X_R_1 >= 0
row 1: +1*W_0 -1*X_R_2 >= 0
row 2: -1*W_0 +1*X_R_1 +1*X_R_2 >= 0
row 3: +1*W_1 -1*X_R_0 >= 0
row 4: -1*W_1 +1*X_R_0 >= 0
row 5: +1*W_0 +1*W_1 -1*Z <= 1
tuples 1:1 2:2 4:0 | witnesses 0:[1 2] 3:[0] | z 5
== Example 3: shared
col 0 W_0 obj 0 upper 1 integer
col 1 X_R_0 obj 1 upper 1 integer
col 2 X_S_3 obj 1 upper 1 integer
col 3 W_1 obj 0 upper 1 integer
col 4 X_S_2 obj 1 upper 1 integer
col 5 W_2 obj 0 upper 1 integer
col 6 X_S_1 obj 1 upper 1 integer
col 7 Z obj 0 upper 1
row 0: +1*W_0 -1*X_R_0 >= 0
row 1: +1*W_0 -1*X_S_3 >= 0
row 2: -1*W_0 +1*X_R_0 +1*X_S_3 >= 0
row 3: -1*X_R_0 +1*W_1 >= 0
row 4: +1*W_1 -1*X_S_2 >= 0
row 5: +1*X_R_0 -1*W_1 +1*X_S_2 >= 0
row 6: -1*X_R_0 +1*W_2 >= 0
row 7: +1*W_2 -1*X_S_1 >= 0
row 8: +1*X_R_0 -1*W_2 +1*X_S_1 >= 0
row 9: +1*W_0 +1*W_1 +1*W_2 -1*Z <= 2
tuples 1:0 2:3 4:2 6:1 | witnesses 0:[0 3] 3:[0 2] 5:[0 1] | z 7
== Example 3, S(1,2) exogenous: shared
col 0 W_0 obj 0 upper 1 integer
col 1 X_R_0 obj 1 upper 1 integer
col 2 X_S_3 obj 1 upper 1 integer
col 3 W_1 obj 0 upper 1 integer
col 4 W_2 obj 0 upper 1 integer
col 5 X_S_1 obj 1 upper 1 integer
col 6 Z obj 0 upper 1
row 0: +1*W_0 -1*X_R_0 >= 0
row 1: +1*W_0 -1*X_S_3 >= 0
row 2: -1*W_0 +1*X_R_0 +1*X_S_3 >= 0
row 3: -1*X_R_0 +1*W_1 >= 0
row 4: +1*X_R_0 -1*W_1 >= 0
row 5: -1*X_R_0 +1*W_2 >= 0
row 6: +1*W_2 -1*X_S_1 >= 0
row 7: +1*X_R_0 -1*W_2 +1*X_S_1 >= 0
row 8: +1*W_0 +1*W_1 +1*W_2 -1*Z <= 2
tuples 1:0 2:3 5:1 | witnesses 0:[0 3] 3:[0 2] 4:[0 1] | z 6
|}

let test_encoding_golden () =
  Alcotest.(check string) "programs as written" encoding_golden (encoding_golden_text ())

(* --- Deletion propagation ------------------------------------------------------ *)

let dp_view () =
  (* V(y) :- R(x,y), S(y,z) over a small instance with overlap *)
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 2 |]);
  ignore (Database.add db "R" [| 1; 3 |]);
  ignore (Database.add db "S" [| 2; 5 |]);
  ignore (Database.add db "S" [| 2; 6 |]);
  ignore (Database.add db "S" [| 3; 5 |]);
  (Cq_parser.parse "R(x,y), S(y,z)", db)

let test_dp_output_rows () =
  let q, db = dp_view () in
  let rows =
    Deletion_propagation.output_rows q ~head:[ "y" ] db |> List.map (fun r -> r.(0))
  in
  Alcotest.(check (list int)) "view rows" [ 2; 3 ] (List.sort compare rows);
  Alcotest.check_raises "unknown head var"
    (Invalid_argument "Deletion_propagation: head variable w not in query") (fun () ->
      ignore (Deletion_propagation.output_rows q ~head:[ "w" ] db))

let test_dp_specialize () =
  let q, db = dp_view () in
  let qb = Deletion_propagation.specialize q ~head:[ "y" ] ~output:[| 2 |] in
  (* the specialisation is Boolean and true exactly because row 2 exists *)
  Alcotest.(check bool) "true at present row" true (Eval.holds qb db);
  let qb9 = Deletion_propagation.specialize q ~head:[ "y" ] ~output:[| 9 |] in
  Alcotest.(check bool) "false at absent row" false (Eval.holds qb9 db)

let test_dp_source_side_effects () =
  let q, db = dp_view () in
  match Deletion_propagation.source_side_effects set q ~head:[ "y" ] db ~output:[| 2 |] with
  | Solve.Solved a ->
    Alcotest.(check int) "one deletion suffices" 1
      (List.length a.Deletion_propagation.deleted_inputs);
    (* the target row is really gone *)
    let db' =
      Database.restrict db (fun info ->
          not (List.mem info.Database.id a.Deletion_propagation.deleted_inputs))
    in
    let rows = Deletion_propagation.output_rows q ~head:[ "y" ] db' in
    Alcotest.(check bool) "row 2 removed" false (List.exists (fun r -> r.(0) = 2) rows)
  | _ -> Alcotest.fail "expected solved"

(* The view rows other than [output] that deleting [gamma] loses. *)
let dp_lost q head db output gamma =
  let db' = Database.restrict db (fun info -> not (List.mem info.Database.id gamma)) in
  let after = Deletion_propagation.output_rows q ~head db' in
  ( List.mem output after,
    List.filter
      (fun r -> r <> output && not (List.mem r after))
      (Deletion_propagation.output_rows q ~head db) )

(* Oracle over every deletion of endogenous input tuples that removes the
   target row: the fewest *other* view rows lost and, among the deletions
   losing that few, the fewest tuples deleted; [None] when no deletion
   does. *)
let dp_view_oracle q head db output =
  let tuples = Array.of_list (Problem.endogenous_tuples q db) in
  let best = ref None in
  for mask = 0 to (1 lsl Array.length tuples) - 1 do
    let gamma = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list tuples) in
    match dp_lost q head db output gamma with
    | false, lost -> (
      let cost = (List.length lost, List.length gamma) in
      match !best with Some b when b <= cost -> () | _ -> best := Some cost)
    | true, _ -> ()
  done;
  !best

(* One view-side-effect answer against brute force: the deletion removes
   the target row, the reported lost rows are the rows it loses, their
   number is the minimum, and so is the number of deleted tuples among
   the deletions losing that few. *)
let dp_view_answer_ok q head db output =
  let answer = Deletion_propagation.view_side_effects q ~head db ~output in
  match (answer, dp_view_oracle q head db output) with
  | Solve.Solved a, Some best ->
    let survives, lost = dp_lost q head db output a.Deletion_propagation.deleted_inputs in
    (not survives)
    && List.sort compare lost = List.sort compare a.Deletion_propagation.lost_outputs
    && (List.length lost, List.length a.Deletion_propagation.deleted_inputs) = best
  | Solve.No_contingency, None -> true
  | Solve.Query_false, _ -> not (List.mem output (Deletion_propagation.output_rows q ~head db))
  | _ -> false

(* Up to [nmax + 1] draws per relation, each exogenous with probability
   [exo]%; callers keep it to at most 12 distinct tuples for the brute
   force. *)
let dp_random_db rng rels nmax dom ~max_bag ~exo =
  let db = Database.create () in
  List.iter
    (fun (rel, arity) ->
      for _ = 1 to 1 + Random.State.int rng nmax do
        ignore
          (Database.add
             ~mult:(1 + Random.State.int rng max_bag)
             ~exo:(Random.State.int rng 100 < exo)
             db rel
             (Array.init arity (fun _ -> Random.State.int rng dom)))
      done)
    rels;
  db

(* The same instance with every multiplicity 1 (ids are kept: tuples are
   re-added in id order). *)
let dp_set_copy db =
  let copy = Database.create () in
  List.iter
    (fun info ->
      ignore (Database.add ~exo:info.Database.exo copy info.Database.rel info.Database.args))
    (Database.tuples db);
  copy

let prop_dp_view_side_effects_brute_force =
  QCheck.Test.make ~name:"view side effects = brute force (2- and 3-atom views, exo, bags)"
    ~count:150 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun (qs, head, rels, nmax, dom) ->
          let q = Cq_parser.parse qs in
          let db = dp_random_db rng rels nmax dom ~max_bag:3 ~exo:20 in
          let set_db = dp_set_copy db in
          List.for_all
            (fun output ->
              dp_view_answer_ok q head db output
              && Deletion_propagation.view_side_effects q ~head db ~output
                 = Deletion_propagation.view_side_effects q ~head set_db ~output)
            (Array.make (List.length head) 9 :: Deletion_propagation.output_rows q ~head db))
        [
          ("R(x,y), S(y,z)", [ "x" ], [ ("R", 2); ("S", 2) ], 5, 3);
          ("R(x,y), S(y,z), T(z,w)", [ "x"; "z" ], [ ("R", 2); ("S", 2); ("T", 2) ], 3, 2);
        ])

let test_dp_fewest_lost_rows () =
  (* V(x,z) :- R(x,y), S(y,z), T(z,w).  Row (0,0) has the one witness
     {R(0,1), S(1,0), T(0,1)}, R(0,1) exogenous.  Deleting T(0,1) also
     loses row (1,0); deleting S(1,0) loses nothing. *)
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 1 |]);
  ignore (Database.add ~exo:true db "R" [| 0; 1 |]);
  ignore (Database.add db "R" [| 1; 0 |]);
  ignore (Database.add ~exo:true db "S" [| 0; 0 |]);
  ignore (Database.add db "S" [| 1; 0 |]);
  ignore (Database.add db "T" [| 1; 1 |]);
  ignore (Database.add db "T" [| 0; 1 |]);
  let q = Cq_parser.parse "R(x,y), S(y,z), T(z,w)" in
  let head = [ "x"; "z" ] in
  Alcotest.(check bool) "brute force" true (dp_view_answer_ok q head db [| 0; 0 |]);
  match Deletion_propagation.view_side_effects q ~head db ~output:[| 0; 0 |] with
  | Solve.Solved a ->
    Alcotest.(check int) "no row lost" 0 (List.length a.Deletion_propagation.lost_outputs)
  | _ -> Alcotest.fail "expected solved"

let test_dp_exogenous_target () =
  (* Row 2 of the view has the witness {R(1,2), S(2,5)}; with both tuples
     exogenous nothing can remove it. *)
  let db = Database.create () in
  ignore (Database.add ~exo:true db "R" [| 1; 2 |]);
  ignore (Database.add db "R" [| 1; 3 |]);
  ignore (Database.add ~exo:true db "S" [| 2; 5 |]);
  ignore (Database.add db "S" [| 2; 6 |]);
  ignore (Database.add db "S" [| 3; 5 |]);
  let q = Cq_parser.parse "R(x,y), S(y,z)" in
  (match Deletion_propagation.view_side_effects q ~head:[ "y" ] db ~output:[| 2 |] with
  | Solve.No_contingency -> ()
  | _ -> Alcotest.fail "expected No_contingency");
  Alcotest.(check bool) "row 3 can still go" true (dp_view_answer_ok q [ "y" ] db [| 3 |])

let prop_dp_view_side_effects_optimal =
  QCheck.Test.make ~name:"view-side-effect ILP matches exhaustive oracle" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q2_chain () in
      let db = random_db rng [ ("R", 2); ("S", 2) ] 6 3 ~max_bag:1 in
      (* Head [x; z]: a row's witnesses share their R tuples with the rows
         of the same x and their S tuples with the rows of the same z, so
         every deletion that removes the target can cost other rows, and
         which it costs is the whole question.  Every row is a target. *)
      let head = [ "x"; "z" ] in
      List.for_all
        (fun output ->
          match Deletion_propagation.view_side_effects q ~head db ~output with
          | Solve.Solved a ->
            Option.map fst (dp_view_oracle q head db output)
            = Some (List.length a.Deletion_propagation.lost_outputs)
          | _ -> false)
        (Deletion_propagation.output_rows q ~head db))

let prop_dp_source_matches_specialized_resilience =
  QCheck.Test.make ~name:"source-side effects = resilience of the specialisation" ~count:60
    (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q2_chain () in
      let db = random_db rng [ ("R", 2); ("S", 2) ] 4 3 ~max_bag:2 in
      match Deletion_propagation.output_rows q ~head:[ "y" ] db with
      | [] -> true
      | output :: _ -> (
        let qb = Deletion_propagation.specialize q ~head:[ "y" ] ~output in
        match
          ( Deletion_propagation.source_side_effects bag q ~head:[ "y" ] db ~output,
            Bruteforce.resilience bag qb db )
        with
        | Solve.Solved a, Some expect ->
          let weight =
            List.fold_left
              (fun acc tid -> acc + (Database.tuple db tid).Database.mult)
              0 a.Deletion_propagation.deleted_inputs
          in
          weight = expect
        | Solve.Query_false, None -> true
        | _ -> false))

(* --- Instance-based tractability (Appendix J) -------------------------------- *)

let test_read_once_detection () =
  (* a hierarchical instance: witnesses pairwise disjoint except through a
     shared root — no P4 *)
  let db = Database.create () in
  ignore (Database.add db "R" [| 1; 1 |]);
  ignore (Database.add db "S" [| 1; 1 |]);
  ignore (Database.add db "S" [| 1; 2 |]);
  let q = Queries.q2_chain () in
  Alcotest.(check bool) "star around r11 is read-once" true
    (Instance.read_once (Eval.witnesses q db));
  (* a genuine P4: w1={r1,s1} w2={r1,s2}... need shares both directions:
     r(1,_) joins s(_,1),s(_,2); r(2,_) joins s(_,2) only *)
  let db2 = Database.create () in
  ignore (Database.add db2 "R" [| 1; 1 |]);
  ignore (Database.add db2 "R" [| 2; 2 |]);
  ignore (Database.add db2 "S" [| 1; 5 |]);
  ignore (Database.add db2 "S" [| 2; 5 |]);
  (* cross-join via shared z? use Q2chain R(x,y),S(y,z): witnesses
     (1,1,5) via r11,s15; (2,2,5) via r22,s25 — disjoint, still read-once *)
  Alcotest.(check bool) "disjoint witnesses read-once" true
    (Instance.read_once (Eval.witnesses q db2));
  (* chain sharing: w1={r11,s13} w2={r21,s13}? need P4:
     r11-s1a, r11-s1b, r21-s1b ... *)
  let db3 = Database.create () in
  ignore (Database.add db3 "R" [| 1; 1 |]);
  ignore (Database.add db3 "R" [| 2; 1 |]);
  ignore (Database.add db3 "S" [| 1; 7 |]);
  ignore (Database.add db3 "S" [| 1; 8 |]);
  (* witnesses: {r11,s17} {r11,s18} {r21,s17} {r21,s18}: w={r11,s17} and
     {r11,s18} share r11 (not s17); {r11,s17} and {r21,s17} share s17 — P4 *)
  Alcotest.(check bool) "grid instance is not read-once" false
    (Instance.read_once (Eval.witnesses q db3))

let prop_read_once_implies_integral_lp =
  QCheck.Test.make ~name:"read-once instance => LP integral (even on the hard triangle)"
    ~count:150 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let q = Queries.q_triangle () in
      let db = random_db rng [ ("R", 2); ("S", 2); ("T", 2) ] 4 3 ~max_bag:1 in
      let witnesses = Eval.witnesses q db in
      (not (Instance.read_once witnesses))
      || witnesses = []
      ||
      match (Solve.resilience set q db, Solve.resilience_lp set q db) with
      | Solve.Solved a, Some lp -> Float.abs (float_of_int a.Solve.res_value -. lp) < 1e-6
      | _ -> false)

let test_fd_detection () =
  let rng = Random.State.make [| 9 |] in
  let db = Datagen.Tpch.generate rng ~scale:0.05 in
  let fds = Instance.functional_dependencies db in
  (* Orders: orderkey (col 1) determines custkey (col 0) *)
  Alcotest.(check bool) "orderkey -> custkey" true
    (List.exists
       (fun fd -> fd.Instance.rel = "Orders" && fd.Instance.determinant = 1 && fd.Instance.determined = 0)
       fds);
  Alcotest.(check bool) "custkey does not determine orderkey" false
    (List.exists
       (fun fd -> fd.Instance.rel = "Orders" && fd.Instance.determinant = 0 && fd.Instance.determined = 1)
       fds);
  let ks = Instance.keys db in
  Alcotest.(check bool) "orderkey is a key of Orders" true (List.mem ("Orders", 1) ks);
  Alcotest.(check bool) "psid is a key of Partsupp" true (List.mem ("Partsupp", 0) ks)

let test_induced_rewrite () =
  let rng = Random.State.make [| 12 |] in
  let db = Datagen.Tpch.generate rng ~scale:0.05 in
  let q = Queries.q_tpch_5cycle () in
  let fds = Instance.var_fds q db in
  Alcotest.(check bool) "orderkey FD lifted" true (List.mem ("ok", "ck") fds);
  let q' = Instance.induced_rewrite q fds in
  (* Theorem J.2: the rewritten query explains the PTIME behaviour of the
     NPC 5-cycle on FK-structured data *)
  Alcotest.(check bool) "original is NPC" true (Analysis.res_complexity set q = Analysis.Npc);
  Alcotest.(check bool) "rewrite is PTIME" true (Analysis.res_complexity set q' = Analysis.Ptime);
  (* no dependencies => identity *)
  Alcotest.(check bool) "no FDs no change" true
    (Cq.equal (Instance.induced_rewrite q []) (Cq.make ~name:(q.Cq.name ^ "_fd") (Array.to_list q.Cq.atoms)))

let test_explain_mentions_structure () =
  let rng = Random.State.make [| 10 |] in
  let db = Datagen.Tpch.generate rng ~scale:0.03 in
  let q = Queries.q_tpch_5cycle () in
  let text = Instance.explain set q db in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions FDs" true (contains "functional dependencies" text);
  Alcotest.(check bool) "mentions the dichotomy verdict" true (contains "NP-complete" text)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "resilience"
    [
      ( "paper_examples",
        [
          Alcotest.test_case "Example 1 (RES ILP)" `Quick test_example_1;
          Alcotest.test_case "Example 2 (bag objective)" `Quick test_example_2;
          Alcotest.test_case "Example 3 (RSP ILP)" `Quick test_example_3;
          Alcotest.test_case "Example 4 (MILP exact, LP bound)" `Quick test_example_4;
          Alcotest.test_case "footnote 5 (non-counterfactual)" `Quick test_footnote_5;
          Alcotest.test_case "query false" `Quick test_query_false;
          Alcotest.test_case "exogenous blocks" `Quick test_exogenous_blocks;
          Alcotest.test_case "exogenous atom" `Quick test_exogenous_atom;
          Alcotest.test_case "movies (Examples 10/11)" `Quick test_movies;
          Alcotest.test_case "migration (Examples 12/13)" `Quick test_migration;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "Table 1: RES dichotomies" `Quick test_table1_res;
          Alcotest.test_case "Table 1: RSP dichotomies" `Quick test_table1_rsp;
          Alcotest.test_case "triad classification" `Quick test_triad_structure;
          Alcotest.test_case "domination" `Quick test_domination;
          Alcotest.test_case "full domination" `Quick test_full_domination;
          Alcotest.test_case "solitary variables" `Quick test_solitary;
          Alcotest.test_case "linearity = triad-freeness" `Quick test_linearity_agrees_with_triads;
        ] );
      ( "solvers",
        [
          q
            (prop_ilp_matches_bruteforce set "ILP = brute force (triangle, set)"
               "R(x,y), S(y,z), T(z,x)"
               [ ("R", 2); ("S", 2); ("T", 2) ]);
          q
            (prop_ilp_matches_bruteforce bag "ILP = brute force (triangle, bag)"
               "R(x,y), S(y,z), T(z,x)"
               [ ("R", 2); ("S", 2); ("T", 2) ]);
          q
            (prop_ilp_matches_bruteforce set "ILP = brute force (SJ chain, set)" "R(x,y), R(y,z)"
               [ ("R", 2) ]);
          q
            (prop_ilp_matches_bruteforce bag "ILP = brute force (z6, bag)"
               "A(x), R(x,y), R(y,y), R(y,z), C(z)"
               [ ("A", 1); ("R", 2); ("C", 1) ]);
          q prop_lp_equals_ilp_easy;
          q prop_milp_equals_ilp_easy_rsp;
          q prop_rsp_ilp_matches_bruteforce;
          q prop_set_duplication_invariant;
          q prop_res_monotone;
        ] );
      ( "approximations",
        [
          q prop_lp_rounding_m_factor;
          q prop_lp_rounding_rsp;
          q prop_flow_approx_rsp_upper_bound;
        ] );
      ( "integrality",
        [
          Alcotest.test_case "easy query: integral root" `Quick test_root_integral_on_easy;
          Alcotest.test_case "hard composed instance: fractional LP" `Quick
            test_fractional_on_composed_hard_instance;
        ] );
      ( "encoding_shapes",
        [
          Alcotest.test_case "RES program shape (Example 1)" `Quick test_encode_res_shape;
          Alcotest.test_case "bag objective (Example 2)" `Quick test_encode_res_bag_objective;
          Alcotest.test_case "RSP program shape (Example 3)" `Quick test_encode_rsp_shape;
          Alcotest.test_case "relaxation integrality flags" `Quick test_encode_relaxations;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "responsibility ranking" `Quick test_responsibility_ranking;
          q prop_res_to_rsp_reduction;
          q prop_lp_equals_ilp_more_easy_queries;
          Alcotest.test_case "LP file format export" `Quick test_lp_format_export;
          Alcotest.test_case "encoding golden (Examples 1-4)" `Quick test_encoding_golden;
        ] );
      ( "deletion_propagation",
        [
          Alcotest.test_case "output rows" `Quick test_dp_output_rows;
          Alcotest.test_case "specialisation" `Quick test_dp_specialize;
          Alcotest.test_case "source side effects" `Quick test_dp_source_side_effects;
          q prop_dp_view_side_effects_optimal;
          q prop_dp_view_side_effects_brute_force;
          Alcotest.test_case "fewest lost rows (3-atom view)" `Quick test_dp_fewest_lost_rows;
          Alcotest.test_case "exogenous target witness" `Quick test_dp_exogenous_target;
          q prop_dp_source_matches_specialized_resilience;
        ] );
      ( "instance_tractability",
        [
          Alcotest.test_case "read-once detection" `Quick test_read_once_detection;
          q prop_read_once_implies_integral_lp;
          Alcotest.test_case "FD detection on TPC-H data" `Quick test_fd_detection;
          Alcotest.test_case "induced rewrite (Theorem J.2)" `Quick test_induced_rewrite;
          Alcotest.test_case "explain" `Quick test_explain_mentions_structure;
        ] );
    ]
