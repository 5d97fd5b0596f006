(* Presolve soundness: the reductions must never change the optimum, and
   lifted solutions must be feasible in the original model — checked
   differentially on random datagen instances under both the float and the
   exact-rational branch-and-bound, plus hand-built edge cases. *)

open Resilience

(* Presolve consumes the frozen compiled form; freeze inline. *)
let presolve ?strip_bounds m = Lp.Presolve.presolve ?strip_bounds (Lp.Frozen.of_model m)

(* Random instances come from the shared Harness module — small query-shaped
   instances with some exogenous tuples; exogenous filtering is what
   produces the duplicate/dominated rows presolve feeds on. *)
let random_case = Harness.random_case

(* Presolve the raw ILP[RES*] encoding and solve both versions with the float
   branch-and-bound: optima must agree (mod the offset) and the lifted point
   must satisfy the raw model. *)
let float_roundtrip seed =
  let rng = Random.State.make [| seed |] in
  let sem, q, db = random_case rng in
  match Encode.res Encode.Ilp sem q db with
  | Encode.Trivial _ | Encode.Impossible -> true
  | Encode.Encoded enc -> (
    let m = enc.Encode.model in
    let fz = Lp.Frozen.of_model m in
    match Lp.Presolve.presolve fz with
    | Lp.Presolve.Unbounded -> false (* covering programs are never unbounded *)
    | Lp.Presolve.Infeasible -> (
      match (Lp.Solvers.Float_bb.solve_frozen fz).Lp.Solvers.Float_bb.status with
      | Lp.Solvers.Float_bb.Infeasible -> true
      | _ -> false)
    | Lp.Presolve.Reduced (reduced, vm) -> (
      let a = Lp.Solvers.Float_bb.solve_frozen fz in
      let b = Lp.Solvers.Float_bb.solve_frozen reduced in
      match
        ( a.Lp.Solvers.Float_bb.status,
          a.Lp.Solvers.Float_bb.objective,
          b.Lp.Solvers.Float_bb.status,
          b.Lp.Solvers.Float_bb.objective,
          b.Lp.Solvers.Float_bb.solution )
      with
      | Lp.Solvers.Float_bb.Optimal, Some o1, Lp.Solvers.Float_bb.Optimal, Some o2, Some s2
        ->
        let lifted = Lp.Presolve.lift vm ~of_int:float_of_int s2 in
        let offset = float_of_int (Lp.Presolve.obj_offset vm) in
        Float.abs (o1 -. (o2 +. offset)) < 1e-6 && Lp.Model.check_feasible m lifted
      | _ -> false))

let exact_roundtrip seed =
  let rng = Random.State.make [| seed |] in
  let sem, q, db = random_case rng in
  match Encode.res Encode.Ilp sem q db with
  | Encode.Trivial _ | Encode.Impossible -> true
  | Encode.Encoded enc -> (
    let m = enc.Encode.model in
    let fz = Lp.Frozen.of_model m in
    match Lp.Presolve.presolve fz with
    | Lp.Presolve.Unbounded -> false
    | Lp.Presolve.Infeasible -> (
      match (Lp.Solvers.Exact_bb.solve_frozen fz).Lp.Solvers.Exact_bb.status with
      | Lp.Solvers.Exact_bb.Infeasible -> true
      | _ -> false)
    | Lp.Presolve.Reduced (reduced, vm) -> (
      let a = Lp.Solvers.Exact_bb.solve_frozen fz in
      let b = Lp.Solvers.Exact_bb.solve_frozen reduced in
      match
        ( a.Lp.Solvers.Exact_bb.status,
          a.Lp.Solvers.Exact_bb.objective,
          b.Lp.Solvers.Exact_bb.status,
          b.Lp.Solvers.Exact_bb.objective )
      with
      | Lp.Solvers.Exact_bb.Optimal, Some o1, Lp.Solvers.Exact_bb.Optimal, Some o2 ->
        Numeric.Rat.equal o1
          (Numeric.Rat.add o2 (Numeric.Rat.of_int (Lp.Presolve.obj_offset vm)))
      | _ -> false))

(* The solve paths run the encoding as built; presolve is checked against
   them.  [presolved ~exact ~relax m] reduces the frozen model, solves the
   reduced program through [Lp.Solvers] (branch-and-bound, or just the LP
   relaxation with [relax]) and returns the lifted optimum: the reduced
   value plus the presolve offset, and whether the lifted point satisfies
   the unreduced model.  [None]: presolve or the solve found it infeasible. *)
let presolved ~exact ~relax m =
  match Lp.Presolve.presolve (Lp.Frozen.of_model m) with
  | Lp.Presolve.Infeasible | Lp.Presolve.Unbounded -> None
  | Lp.Presolve.Reduced (fz, vm) -> (
    let (Lp.Solvers.Engine ((module B), s)) = Lp.Solvers.engine ~exact fz in
    let optimum =
      if relax then match B.relax s with `Optimal (o, x) -> Some (o, x) | _ -> None
      else
        let r = B.solve_session s in
        match (r.B.status, r.B.objective, r.B.solution) with
        | B.Optimal, Some o, Some x -> Some (o, x)
        | _ -> None
    in
    Option.map
      (fun (o, x) ->
        ( B.to_float o +. float_of_int (Lp.Presolve.obj_offset vm),
          Lp.Model.check_feasible m (B.to_floats (Lp.Presolve.lift vm ~of_int:B.of_int x)) ))
      optimum)

(* End-to-end: Solve.resilience (float and exact) against presolve applied
   to the same ILP[RES*] encoding, plus contingency validity of the
   answer. *)
let end_to_end ~exact seed =
  let rng = Random.State.make [| seed |] in
  let sem, q, db = random_case rng in
  match (Solve.resilience ~exact sem q db, Encode.res Encode.Ilp sem q db) with
  | Solve.Solved a, Encode.Encoded enc -> (
    match presolved ~exact ~relax:false enc.Encode.model with
    | Some (p, lift_ok) ->
      Float.abs (float_of_int a.Solve.res_value -. p) < 1e-6
      && lift_ok
      && Solve.verify_contingency sem q db a.Solve.contingency
    | None -> false)
  | Solve.No_contingency, Encode.Encoded enc ->
    presolved ~exact ~relax:false enc.Encode.model = None
  | Solve.Query_false, Encode.Trivial _ -> true
  | Solve.No_contingency, Encode.Impossible -> true
  | _ -> false

(* LP[RES*]: Solve.resilience_lp against the presolved relaxation. *)
let lp_roundtrip seed =
  let rng = Random.State.make [| seed |] in
  let sem, q, db = random_case rng in
  match (Solve.resilience_lp sem q db, Encode.res Encode.Lp sem q db) with
  | Some a, Encode.Encoded enc -> (
    match presolved ~exact:false ~relax:true enc.Encode.model with
    | Some (p, lift_ok) -> Float.abs (a -. p) < 1e-6 && lift_ok
    | None -> false)
  | None, Encode.Encoded enc -> presolved ~exact:false ~relax:true enc.Encode.model = None
  | None, (Encode.Trivial _ | Encode.Impossible) -> true
  | Some _, (Encode.Trivial _ | Encode.Impossible) -> false

let qcheck_cases =
  [
    QCheck.Test.make ~name:"float B&B: presolved optimum = raw, lift feasible" ~count:120
      (QCheck.int_range 0 1_000_000) float_roundtrip;
    QCheck.Test.make ~name:"exact B&B: presolved optimum = raw" ~count:100
      (QCheck.int_range 0 1_000_000) exact_roundtrip;
    QCheck.Test.make ~name:"Solve.resilience: presolve on = off (float)" ~count:120
      (QCheck.int_range 0 1_000_000)
      (end_to_end ~exact:false);
    QCheck.Test.make ~name:"Solve.resilience: presolve on = off (exact)" ~count:60
      (QCheck.int_range 0 1_000_000)
      (end_to_end ~exact:true);
    QCheck.Test.make ~name:"LP[RES*]: presolve on = off" ~count:120
      (QCheck.int_range 0 1_000_000) lp_roundtrip;
  ]

(* --- Hand-built edge cases ------------------------------------------------ *)

let reduced_exn = function
  | Lp.Presolve.Reduced (m, vm) -> (m, vm)
  | Lp.Presolve.Infeasible -> Alcotest.fail "unexpected Infeasible"
  | Lp.Presolve.Unbounded -> Alcotest.fail "unexpected Unbounded"

let test_empty_row_infeasible () =
  let m = Lp.Model.create () in
  ignore (Lp.Model.add_var ~obj:1 m);
  Lp.Model.add_constr m [] Lp.Model.Geq 1;
  match presolve m with
  | Lp.Presolve.Infeasible -> ()
  | _ -> Alcotest.fail "0 >= 1 must presolve to Infeasible"

let test_singleton_fixes () =
  (* x >= 1 with x <= 1 pins x = 1; its cost lands in the offset. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var ~integer:true ~upper:1 ~obj:3 m in
  let y = Lp.Model.add_var ~integer:true ~upper:1 ~obj:1 m in
  Lp.Model.add_constr m [ (x, 1) ] Lp.Model.Geq 1;
  Lp.Model.add_constr m [ (x, 1); (y, 1) ] Lp.Model.Geq 1;
  let reduced, vm = reduced_exn (presolve m) in
  Alcotest.(check int) "offset carries the fixed cost" 3 (Lp.Presolve.obj_offset vm);
  Alcotest.(check int) "everything solved away" 0 (Lp.Frozen.num_rows reduced);
  let lifted = Lp.Presolve.lift vm ~of_int:float_of_int (Array.make (Lp.Frozen.num_vars reduced) 0.) in
  Alcotest.(check bool) "lifted point feasible" true (Lp.Model.check_feasible m lifted)

let test_activity_infeasible () =
  (* x + y >= 3 with both bounded by 1 cannot hold. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var ~integer:true ~upper:1 ~obj:1 m in
  let y = Lp.Model.add_var ~integer:true ~upper:1 ~obj:1 m in
  Lp.Model.add_constr m [ (x, 1); (y, 1) ] Lp.Model.Geq 3;
  match presolve m with
  | Lp.Presolve.Infeasible -> ()
  | _ -> Alcotest.fail "activity bound must prove infeasibility"

let test_dominated_and_duplicate_rows () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var ~integer:true ~upper:1 ~obj:1 m in
  let y = Lp.Model.add_var ~integer:true ~upper:1 ~obj:1 m in
  let z = Lp.Model.add_var ~integer:true ~upper:1 ~obj:1 m in
  Lp.Model.add_constr m [ (x, 1); (y, 1); (z, 1) ] Lp.Model.Geq 1;
  Lp.Model.add_constr m [ (x, 1); (y, 1) ] Lp.Model.Geq 1;
  Lp.Model.add_constr m [ (x, 1); (y, 1) ] Lp.Model.Geq 1;
  let reduced, vm = reduced_exn (presolve m) in
  let s = Lp.Presolve.summary vm in
  Alcotest.(check int) "one row survives" 1 (Lp.Frozen.num_rows reduced);
  Alcotest.(check bool) "rows were removed" true (s.Lp.Presolve.rows_removed >= 2)

let test_strip_bounds_restores_row_structure () =
  (* A pure covering model: every binary bound is provably redundant, so the
     reduced model should carry no finite bounds at all (the dual simplex
     then pays one row per witness, as before the Model.add_var change). *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var ~integer:true ~upper:1 ~obj:1 m in
  let y = Lp.Model.add_var ~integer:true ~upper:1 ~obj:2 m in
  Lp.Model.add_constr m [ (x, 1); (y, 1) ] Lp.Model.Geq 1;
  let reduced, vm = reduced_exn (presolve m) in
  let unbounded v = Lp.Frozen.upper reduced v = None in
  Alcotest.(check bool) "all bounds stripped" true
    (List.for_all unbounded (List.init (Lp.Frozen.num_vars reduced) Fun.id));
  Alcotest.(check int) "stripped count" 2 (Lp.Presolve.summary vm).Lp.Presolve.bounds_stripped;
  (match presolve ~strip_bounds:false m with
  | Lp.Presolve.Reduced (keep, _) ->
    Alcotest.(check bool) "opt-out keeps bounds" true
      (List.exists
         (fun v -> Lp.Frozen.upper keep v <> None)
         (List.init (Lp.Frozen.num_vars keep) Fun.id))
  | _ -> Alcotest.fail "expected Reduced")

let test_zero_cost_bound_not_stripped () =
  (* With zero objective weight the truncation argument fails (the solver may
     legitimately return x = u, and with the bound gone x > u): the bound
     must survive. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var ~upper:1 ~obj:0 m in
  let y = Lp.Model.add_var ~upper:1 ~obj:1 m in
  Lp.Model.add_constr m [ (x, 1); (y, 1) ] Lp.Model.Geq 1;
  let reduced, _ = reduced_exn (presolve m) in
  Alcotest.(check bool) "zero-cost bound kept" true
    (List.exists
       (fun v -> Lp.Frozen.upper reduced v <> None)
       (List.init (Lp.Frozen.num_vars reduced) Fun.id))

let test_add_var_guards () =
  let m = Lp.Model.create () in
  Alcotest.check_raises "integer needs an upper bound"
    (Invalid_argument "Model.add_var: integer variable requires an upper bound") (fun () ->
      ignore (Lp.Model.add_var ~integer:true m));
  Alcotest.check_raises "negative upper rejected"
    (Invalid_argument "Model.add_var: negative upper bound") (fun () ->
      ignore (Lp.Model.add_var ~upper:(-1) m))

let () =
  let open Alcotest in
  run "presolve"
    [
      ( "edge-cases",
        [
          test_case "empty infeasible row" `Quick test_empty_row_infeasible;
          test_case "singleton fixes variable" `Quick test_singleton_fixes;
          test_case "activity infeasibility" `Quick test_activity_infeasible;
          test_case "duplicate/dominated rows" `Quick test_dominated_and_duplicate_rows;
          test_case "bound stripping" `Quick test_strip_bounds_restores_row_structure;
          test_case "zero-cost bound kept" `Quick test_zero_cost_bound_not_stripped;
          test_case "add_var guards" `Quick test_add_var_guards;
        ] );
      ("soundness", List.map QCheck_alcotest.to_alcotest qcheck_cases);
    ]
