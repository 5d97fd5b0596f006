(* Tests for the LP/ILP solver stack: model building, the dual simplex
   session (differential across the float field, the exact rational field
   and the dense reference kernel), and branch-and-bound. *)

module M = Lp.Model
module FS = Lp.Solvers.Float_simplex
module ES = Lp.Solvers.Exact_simplex
module FB = Lp.Solvers.Float_bb
module EB = Lp.Solvers.Exact_bb

let freeze = Lp.Frozen.of_model
let fix = Lp.Frozen.Delta.fix
let no_fix = Lp.Frozen.Delta.empty

let objective_of = function FS.Optimal { objective; _ } -> Some objective | FS.Infeasible -> None

let solution_of = function FS.Optimal { solution; _ } -> Some solution | FS.Infeasible -> None
(* --- Model --------------------------------------------------------------- *)

let test_model_building () =
  let m = M.create () in
  let x = M.add_var ~name:"x" ~obj:3 m in
  let y = M.add_var ~integer:true ~upper:1 m in
  M.add_constr m [ (x, 1); (y, 2); (x, 1) ] M.Geq 2;
  Alcotest.(check int) "vars" 2 (M.num_vars m);
  Alcotest.(check int) "constrs" 1 (M.num_constrs m);
  Alcotest.(check int) "objective" 3 (M.objective m x);
  Alcotest.(check bool) "integer flag" true (M.is_integer m y);
  Alcotest.(check (option int)) "upper" (Some 1) (M.upper m y);
  Alcotest.(check string) "default name" "x1" (M.var_name m y);
  (* duplicate coefficients are merged *)
  let c = (M.constraints m).(0) in
  Alcotest.(check (list (pair int int))) "merged expr" [ (x, 2); (y, 2) ] c.M.expr;
  Alcotest.check_raises "unknown var" (Invalid_argument "Model.add_constr: unknown variable")
    (fun () -> M.add_constr m [ (99, 1) ] M.Leq 0)

let test_check_feasible () =
  let m = M.create () in
  let x = M.add_var ~upper:2 m in
  M.add_constr m [ (x, 1) ] M.Geq 1;
  Alcotest.(check bool) "feasible" true (M.check_feasible m [| 1.5 |]);
  Alcotest.(check bool) "below" false (M.check_feasible m [| 0.5 |]);
  Alcotest.(check bool) "above upper" false (M.check_feasible m [| 2.5 |])

(* --- Simplex on known programs ------------------------------------------- *)

let mk_lp () =
  (* min 2x + 3y  s.t.  x+y >= 4, x-y <= 2, 3x+y >= 6  ->  obj 9 at (3,1) *)
  let m = M.create () in
  let x = M.add_var ~obj:2 m in
  let y = M.add_var ~obj:3 m in
  M.add_constr m [ (x, 1); (y, 1) ] M.Geq 4;
  M.add_constr m [ (x, 1); (y, -1) ] M.Leq 2;
  M.add_constr m [ (x, 3); (y, 1) ] M.Geq 6;
  (m, x, y)

let test_simplex_known () =
  let m, x, y = mk_lp () in
  List.iter
    (fun kernel ->
      match FS.solve_frozen ~kernel (freeze m) with
      | FS.Optimal { objective; solution } ->
        Alcotest.(check (float 1e-6)) "objective" 9.0 objective;
        Alcotest.(check (float 1e-6)) "x" 3.0 solution.(x);
        Alcotest.(check (float 1e-6)) "y" 1.0 solution.(y)
      | FS.Infeasible -> Alcotest.fail "expected optimal")
    [ `Sparse; `Dense ]

let test_simplex_exact_known () =
  let m, _, _ = mk_lp () in
  match ES.solve_frozen (freeze m) with
  | ES.Optimal { objective; _ } ->
    Alcotest.(check bool) "exact 9" true (Numeric.Rat.equal objective (Numeric.Rat.of_int 9))
  | ES.Infeasible -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  let m = M.create () in
  let x = M.add_var ~upper:1 m in
  M.add_constr m [ (x, 1) ] M.Geq 2;
  match FS.solve_frozen (freeze m) with
  | FS.Infeasible -> ()
  | FS.Optimal _ -> Alcotest.fail "should be infeasible"

(* Non-negative costs are a construction-time invariant: every way a
   variable enters a program refuses a negative objective coefficient. *)
let test_negative_objective_rejected () =
  Alcotest.check_raises "Model.add_var" (Invalid_argument "Model.add_var: negative objective")
    (fun () -> ignore (M.add_var ~obj:(-1) (M.create ())));
  Alcotest.check_raises "Frozen.make" (Invalid_argument "Frozen.make: negative objective")
    (fun () ->
      ignore
        (Lp.Frozen.make ~names:[| "x" |] ~integer:[| false |] ~upper:[| None |] ~obj:[| -1 |]
           ~rows:[||]));
  Alcotest.check_raises "Frozen.Delta.append_col"
    (Invalid_argument "Frozen.Delta.append_col: negative objective") (fun () ->
      ignore (Lp.Frozen.Delta.append_col ~name:"x" ~obj:(-1) no_fix))

let test_simplex_degenerate_equalities () =
  (* equality rows: the session gives their slacks the range [0,0] *)
  let m = M.create () in
  let x = M.add_var ~obj:1 m in
  let y = M.add_var ~obj:1 m in
  M.add_constr m [ (x, 1); (y, 1) ] M.Eq 3;
  M.add_constr m [ (x, 1); (y, -1) ] M.Eq 1;
  match FS.solve_frozen (freeze m) with
  | FS.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) "objective" 3.0 objective;
    Alcotest.(check (float 1e-6)) "x" 2.0 solution.(x);
    Alcotest.(check (float 1e-6)) "y" 1.0 solution.(y)
  | FS.Infeasible -> Alcotest.fail "expected optimal"

let test_simplex_fixed () =
  let m, x, y = mk_lp () in
  (match FS.solve_frozen ~delta:(fix x 4 no_fix) (freeze m) with
  | FS.Optimal { objective; solution } ->
    Alcotest.(check (float 1e-6)) "x pinned" 4.0 solution.(x);
    (* with x=4: y >= 0, y >= 2 from x - y <= 2, obj = 8 + 3*2 = 14 *)
    Alcotest.(check (float 1e-6)) "y" 2.0 solution.(y);
    Alcotest.(check (float 1e-6)) "objective" 14.0 objective
  | FS.Infeasible -> Alcotest.fail "expected optimal");
  (* y = 0 leaves x >= 4 against x <= 2 *)
  (match FS.solve_frozen ~delta:(fix y 0 no_fix) (freeze m) with
  | FS.Infeasible -> ()
  | FS.Optimal _ -> Alcotest.fail "y = 0 must be infeasible");
  Alcotest.check_raises "negative fix" (Invalid_argument "Frozen.Delta.fix: negative value")
    (fun () -> ignore (fix x (-1) no_fix))

let test_fractional_covering () =
  (* the triangle vertex-cover LP has optimum 1.5 *)
  let m = M.create () in
  let v = Array.init 3 (fun _ -> M.add_var ~obj:1 m) in
  M.add_constr m [ (v.(0), 1); (v.(1), 1) ] M.Geq 1;
  M.add_constr m [ (v.(1), 1); (v.(2), 1) ] M.Geq 1;
  M.add_constr m [ (v.(0), 1); (v.(2), 1) ] M.Geq 1;
  match FS.solve_frozen (freeze m) with
  | FS.Optimal { objective; _ } -> Alcotest.(check (float 1e-6)) "LP" 1.5 objective
  | FS.Infeasible -> Alcotest.fail "expected optimal"

(* --- Differential property: float = exact = dense kernel ------------------- *)

(* Random models over all three row senses with mixed-sign coefficients and
   right-hand sides: the equality slacks and the general (non-covering) row
   shapes are reached only here. *)
let arb_model =
  let gen =
    QCheck.Gen.(
      let* nv = int_range 2 7 in
      let* nc = int_range 1 7 in
      let* objs = list_repeat nv (int_range 0 5) in
      let* uppers = list_repeat nv (opt (int_range 1 3)) in
      let* rows =
        list_repeat nc
          (let* coeffs = list_repeat nv (int_range (-2) 3) in
           let* sense = oneofl [ M.Geq; M.Leq; M.Eq ] in
           let* rhs = int_range (-2) 6 in
           return (coeffs, sense, rhs))
      in
      return (objs, uppers, rows))
  in
  QCheck.make gen

let build_model (objs, uppers, rows) =
  let m = M.create () in
  let vars =
    List.map2 (fun obj upper -> M.add_var ?upper ~obj m) objs uppers
  in
  List.iter
    (fun (coeffs, sense, rhs) ->
      let expr = List.combine vars coeffs |> List.filter (fun (_, c) -> c <> 0) in
      if expr <> [] then M.add_constr m expr sense rhs)
    rows;
  m

let prop_float_exact_dense_agree =
  QCheck.Test.make ~name:"float session = exact session = dense-kernel session" ~count:400
    arb_model (fun spec ->
      let fz = freeze (build_model spec) in
      let a = objective_of (FS.solve_frozen fz) in
      let b = objective_of (FS.solve_frozen ~kernel:`Dense fz) in
      let c =
        match ES.solve_frozen fz with
        | ES.Optimal { objective; _ } -> Some (Numeric.Rat.to_float objective)
        | ES.Infeasible -> None
      in
      let close x y =
        match (x, y) with
        | Some a, Some b -> Float.abs (a -. b) < 1e-5
        | None, None -> true
        | _ -> false
      in
      close a b && close a c)

let prop_solution_feasible =
  QCheck.Test.make ~name:"returned solutions satisfy the model" ~count:400 arb_model (fun spec ->
      let m = build_model spec in
      match solution_of (FS.solve_frozen (freeze m)) with
      | Some x -> M.check_feasible m x
      | None -> true)

(* --- Branch and bound ------------------------------------------------------ *)

let triangle_vc () =
  let m = M.create () in
  let v = Array.init 3 (fun _ -> M.add_var ~integer:true ~upper:1 ~obj:1 m) in
  M.add_constr m [ (v.(0), 1); (v.(1), 1) ] M.Geq 1;
  M.add_constr m [ (v.(1), 1); (v.(2), 1) ] M.Geq 1;
  M.add_constr m [ (v.(0), 1); (v.(2), 1) ] M.Geq 1;
  m

let test_bb_triangle () =
  let r = FB.solve_frozen (freeze (triangle_vc ())) in
  Alcotest.(check bool) "optimal" true (r.FB.status = FB.Optimal);
  Alcotest.(check (float 1e-6)) "objective 2" 2.0 (Option.get r.FB.objective);
  Alcotest.(check (float 1e-6)) "fractional root" 1.5 (Option.get r.FB.root_objective);
  Alcotest.(check bool) "root not integral" false r.FB.root_integral;
  Alcotest.(check bool) "needed branching" true (r.FB.nodes > 1)

let test_bb_integral_root () =
  (* a bipartite-cover-ish model whose LP optimum is already integral *)
  let m = M.create () in
  let x = M.add_var ~integer:true ~upper:1 ~obj:1 m in
  let y = M.add_var ~integer:true ~upper:1 ~obj:2 m in
  M.add_constr m [ (x, 1); (y, 1) ] M.Geq 1;
  let r = FB.solve_frozen (freeze m) in
  Alcotest.(check (float 1e-6)) "objective 1" 1.0 (Option.get r.FB.objective);
  Alcotest.(check bool) "root integral" true r.FB.root_integral;
  Alcotest.(check int) "single node" 1 r.FB.nodes

let test_bb_infeasible () =
  let m = M.create () in
  let x = M.add_var ~integer:true ~upper:1 m in
  M.add_constr m [ (x, 1) ] M.Geq 2;
  let r = FB.solve_frozen (freeze m) in
  Alcotest.(check bool) "infeasible" true (r.FB.status = FB.Infeasible)

let test_bb_node_limit () =
  let r = FB.solve_frozen ~node_limit:1 (freeze (triangle_vc ())) in
  Alcotest.(check bool) "limit status" true
    (match r.FB.status with FB.Feasible | FB.Limit_no_solution -> true | _ -> false)

let test_bb_rejects_general_integers () =
  let m = M.create () in
  let x = M.add_var ~integer:true ~upper:5 ~obj:1 m in
  M.add_constr m [ (x, 1) ] M.Geq 1;
  Alcotest.check_raises "non-binary"
    (Invalid_argument "Branch_bound.solve_session: integer variables must be binary") (fun () ->
      ignore (FB.solve_frozen (freeze m)))

let test_bb_exact_matches_float () =
  let m = triangle_vc () in
  let rf = FB.solve_frozen (freeze m) in
  let re = EB.solve_frozen (freeze m) in
  Alcotest.(check (float 1e-9)) "same optimum" (Option.get rf.FB.objective)
    (Numeric.Rat.to_float (Option.get re.EB.objective))

(* Random set-cover ILPs (the shared Harness covering generator):
   branch-and-bound equals exhaustive search over all 0/1 points. *)
let prop_bb_matches_bruteforce =
  Harness.seeded_prop ~count:200 "B&B = exhaustive on random covers" (fun rng ->
      let nvars = 2 + Random.State.int rng 7 in
      let nrows = 1 + Random.State.int rng 6 in
      let m, vars = Harness.random_covering_model ~integer:true rng ~nvars ~nrows in
      let best = ref max_int in
      for mask = 0 to (1 lsl nvars) - 1 do
        let x = Array.init nvars (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
        if M.check_feasible m x then begin
          let w =
            Array.fold_left
              (fun acc v -> if mask land (1 lsl v) <> 0 then acc + M.objective m v else acc)
              0 vars
          in
          if w < !best then best := w
        end
      done;
      let r = FB.solve_frozen (freeze m) in
      match r.FB.objective with
      | Some obj -> int_of_float (Float.round obj) = !best
      | None -> false)

(* A random 0/1-fix overlay over a quarter of the variables each way. *)
let random_fixes rng vars =
  Array.fold_left
    (fun d v ->
      match Random.State.int rng 4 with
      | 0 -> Lp.Frozen.Delta.fix_zero v d
      | 1 -> Lp.Frozen.Delta.force_one v d
      | _ -> d)
    no_fix vars

let float_outcome r =
  (r.FB.status = FB.Optimal, Option.map (fun o -> int_of_float (Float.round o)) r.FB.objective)

let exact_outcome r =
  ( r.EB.status = EB.Optimal,
    Option.map (fun o -> int_of_float (Float.round (Numeric.Rat.to_float o))) r.EB.objective )

(* The sequential search is the same on every field and basis kernel: status
   and optimum agree between the float sparse-LU, float dense-inverse and
   exact-rational sessions, under a random fix overlay. *)
let prop_bb_fields_kernels_agree =
  Harness.seeded_prop ~count:150 "B&B: float = exact = dense-kernel optimum" (fun rng ->
      let nvars = 3 + Random.State.int rng 7 in
      let nrows = 2 + Random.State.int rng 7 in
      let fz, vars = Harness.random_covering_frozen ~integer:true rng ~nvars ~nrows in
      let delta = random_fixes rng vars in
      let sparse = float_outcome (FB.solve_frozen ~delta fz) in
      let dense = float_outcome (FB.solve_session ~delta (FB.create_session ~kernel:`Dense fz)) in
      let exact = exact_outcome (EB.solve_frozen ~delta fz) in
      sparse = dense && sparse = exact)

(* One session answers a stream of trees, each root warm from the previous
   call's final basis; no search state may leak from one call into the
   next, so every answer equals a fresh session's on the same overlay. *)
let prop_bb_warm_chain_matches_fresh =
  Harness.seeded_prop ~count:120 "warm B&B session across overlays = fresh solves (float + exact)"
    (fun rng ->
      let nvars = 3 + Random.State.int rng 7 in
      let nrows = 2 + Random.State.int rng 7 in
      let fz, vars = Harness.random_covering_frozen ~integer:true rng ~nvars ~nrows in
      let deltas = List.init 5 (fun _ -> random_fixes rng vars) in
      let fs = FB.create_session fz and es = EB.create_session fz in
      List.for_all
        (fun delta ->
          float_outcome (FB.solve_session ~delta fs) = float_outcome (FB.solve_frozen ~delta fz)
          && exact_outcome (EB.solve_session ~delta es) = exact_outcome (EB.solve_frozen ~delta fz))
        deltas)

(* --- Warm entry: a session moved by delta diffs = a fresh session ----------- *)

(* One warm session per field replays [deltas]; every answer must equal a
   fresh session's on the same delta (float objectives within 1e-7, exact
   objectives equal as rationals), and every warm float solution must
   satisfy the program under its delta. *)
let check_warm_chain name fz deltas =
  let fw = FS.create_session fz and ew = ES.create_session fz in
  List.iteri
    (fun i delta ->
      let step = Printf.sprintf "%s, step %d" name i in
      (match (FS.session_solve fw delta, FS.solve_frozen ~delta fz) with
      | FS.Optimal { objective = w; solution }, FS.Optimal { objective = c; _ } ->
        Alcotest.(check (float 1e-7)) (step ^ ": float objective") c w;
        Alcotest.(check bool) (step ^ ": feasible") true (Lp.Frozen.check_feasible ~delta fz solution)
      | FS.Infeasible, FS.Infeasible -> ()
      | _ -> Alcotest.failf "%s: float warm and fresh outcomes differ" step);
      match (ES.session_solve ew delta, ES.solve_frozen ~delta fz) with
      | ES.Optimal { objective = w; _ }, ES.Optimal { objective = c; _ } ->
        if not (Numeric.Rat.equal w c) then
          Alcotest.failf "%s: exact warm %s <> fresh %s" step (Numeric.Rat.to_string w)
            (Numeric.Rat.to_string c)
      | ES.Infeasible, ES.Infeasible -> ()
      | _ -> Alcotest.failf "%s: exact warm and fresh outcomes differ" step)
    deltas

(* x = 3 is basic at the base optimum of [mk_lp].  Fixing it moves no
   nonbasic value, only the bounds of a basic column, so the entry must
   re-check the row x is basic in: otherwise x keeps 3 and the fixed
   programs answer the base optimum 9. *)
let test_warm_fix_basic () =
  let m, x, _ = mk_lp () in
  check_warm_chain "fix basic x" (freeze m)
    [ no_fix; fix x 1 no_fix; fix x 0 no_fix; no_fix; fix x 1 no_fix ]

(* min x + 5y s.t. x + y >= 1, both in [0, 1].  Fixing x = 0 on a fresh
   session makes y enter (one pivot), which raises the row dual to 5 while
   the skipped x keeps its reduced cost 1.  Releasing x must re-price it to
   1 - 5 = -4 and move it to its upper bound (objective 1); the stale cost
   leaves x at 0 and y in, objective 5.  Deleting the re-pricing loop in
   [Simplex.state_install], or the multiplier update of the pivot, fails
   this case. *)
let test_warm_release_reprices () =
  let m = M.create () in
  let x = M.add_var ~upper:1 ~obj:1 m in
  let y = M.add_var ~upper:1 ~obj:5 m in
  M.add_constr m [ (x, 1); (y, 1) ] M.Geq 1;
  let fz = freeze m in
  check_warm_chain "release x" fz [ fix x 0 no_fix; no_fix ];
  let s = FS.create_session fz in
  Alcotest.(check (option (float 1e-9))) "x fixed" (Some 5.0)
    (objective_of (FS.session_solve s (fix x 0 no_fix)));
  Alcotest.(check bool) "the fixed solve pivoted" true (FS.session_pivots s > 0);
  Alcotest.(check (option (float 1e-9))) "x released" (Some 1.0)
    (objective_of (FS.session_solve s no_fix))

(* A fix above a variable's upper bound is rejected before the state
   moves: the deltas around it answer as fresh sessions do, and a re-solve
   under the delta installed before it makes no pivot. *)
let test_warm_over_upper_fix () =
  let fz, vars = Harness.random_covering_frozen (Harness.rng_of 11) ~nvars:8 ~nrows:7 in
  let a = fix vars.(0) 0 (fix vars.(2) 1 no_fix) in
  let bad = fix vars.(1) 2 (fix vars.(0) 1 no_fix) in
  let b = fix vars.(0) 1 no_fix in
  check_warm_chain "over-upper fix" fz [ a; bad; a; bad; b ];
  let s = FS.create_session fz in
  ignore (FS.session_solve s a);
  let p = FS.session_pivots s in
  Alcotest.(check bool) "over-upper fix infeasible" true (FS.session_solve s bad = FS.Infeasible);
  ignore (FS.session_solve s a);
  Alcotest.(check int) "re-solve under the installed delta: no pivot" p (FS.session_pivots s)

let test_warm_alternation () =
  let rng = Harness.rng_of 7 in
  let fz, vars = Harness.random_covering_frozen rng ~nvars:12 ~nrows:10 in
  let a = random_fixes rng vars and b = random_fixes rng vars in
  check_warm_chain "alternation" fz (List.init 100 (fun i -> if i mod 2 = 0 then a else b))

(* Appends after warm solves: the session re-compiles with an empty
   installed delta and installs the next fixes by the usual diff, fixes on
   appended columns included. *)
let test_warm_appends () =
  let module D = Lp.Frozen.Delta in
  let fz, vars = Harness.random_covering_frozen (Harness.rng_of 5) ~nvars:6 ~nrows:5 in
  let nv = Array.length vars in
  let d1 = D.append_row M.Geq 1 [ (vars.(0), 1); (nv, 1) ] (D.append_col ~upper:1 ~name:"a" ~obj:1 no_fix) in
  let d2 = D.append_row M.Geq 1 [ (nv, 1); (nv + 1, 1) ] (D.append_col ~upper:1 ~name:"b" ~obj:2 d1) in
  check_warm_chain "appends" fz
    [
      fix vars.(0) 0 no_fix;
      fix vars.(1) 1 no_fix;
      fix vars.(0) 0 d1;
      fix nv 0 (fix vars.(0) 0 d1);
      fix nv 0 d2;
      fix (nv + 1) 1 d2;
      d2;
    ]

(* --- Float units vs the functor ---------------------------------------------- *)

(* [Solvers.Float_simplex]/[Float_bb] are the functor bodies compiled as
   float units with the field operations inlined; the functor instances at
   [Float_field] run the same body through a call per field operation.
   IEEE arithmetic gives the same result boxed or unboxed, so on every
   generated LP and ILP, replayed as a warm delta chain on both kernels,
   answers must agree bit for bit and the pivot, refactorisation and node
   counts exactly.  This keeps the functor body itself honest now that
   only the exact field and tests instantiate it. *)
module GS = Lp.Simplex.Make (Numeric.Field.Float_field)
module GB = Lp.Branch_bound.Make (Numeric.Field.Float_field)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_point a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_opt eq a b =
  match (a, b) with Some a, Some b -> eq a b | None, None -> true | Some _, None | None, Some _ -> false

let bb_status_name = function
  | FB.Optimal -> "optimal"
  | FB.Feasible -> "feasible"
  | FB.Infeasible -> "infeasible"
  | FB.Unbounded -> "unbounded"
  | FB.Limit_no_solution -> "limit"

let gb_status_name = function
  | GB.Optimal -> "optimal"
  | GB.Feasible -> "feasible"
  | GB.Infeasible -> "infeasible"
  | GB.Unbounded -> "unbounded"
  | GB.Limit_no_solution -> "limit"

(* At most this many deltas of a case are replayed: the drift profile's
   hundreds of steps add time, not coverage of the comparison. *)
let max_steps = 40

let float_units_match_functor ~case ~kernel ({ frozen; deltas } : Check.Gen.lp_case) =
  let deltas = List.filteri (fun i _ -> i < max_steps) deltas in
  let gs = GS.create_session ~kernel frozen and fs = FS.create_session ~kernel frozen in
  let gb = GB.create_session ~kernel frozen and fb = FB.create_session ~kernel frozen in
  List.iteri
    (fun i delta ->
      let lp_ok =
        match (GS.session_solve gs delta, FS.session_solve fs delta) with
        | GS.Optimal g, FS.Optimal f ->
          same_bits g.objective f.objective && same_point g.solution f.solution
        | GS.Infeasible, FS.Infeasible -> true
        | GS.Optimal _, FS.Infeasible | GS.Infeasible, FS.Optimal _ -> false
      in
      if not lp_ok then Alcotest.failf "%s step %d: LP answers differ" case i;
      if GS.session_pivots gs <> FS.session_pivots fs
         || GS.session_refactors gs <> FS.session_refactors fs
      then Alcotest.failf "%s step %d: LP pivots/refactors differ" case i;
      let g = GB.solve_session ~delta gb and f = FB.solve_session ~delta fb in
      if
        not
          (gb_status_name g.GB.status = bb_status_name f.FB.status
          && same_opt same_bits g.GB.objective f.FB.objective
          && same_opt same_point g.GB.solution f.FB.solution
          && same_opt same_bits g.GB.root_objective f.FB.root_objective
          && g.GB.root_integral = f.FB.root_integral
          && g.GB.nodes = f.FB.nodes
          && g.GB.pivots = f.FB.pivots
          && g.GB.refactors = f.FB.refactors)
      then Alcotest.failf "%s step %d: branch-and-bound results differ" case i)
    deltas

let test_float_units_match_functor () =
  let cases =
    List.filter_map
      (fun c ->
        match c.Check.Gen.shape with
        | Check.Gen.Lp lp -> Some (c.Check.Gen.seed, lp)
        | Check.Gen.Db _ -> None)
      (Check.Gen.stream ~seed:1919 800)
  in
  Alcotest.(check bool) "enough generated programs" true (List.length cases >= 60);
  List.iter
    (fun (seed, lp) ->
      List.iter
        (fun (kernel, name) ->
          let case = Printf.sprintf "case %d, %s kernel," seed name in
          float_units_match_functor ~case ~kernel lp)
        [ (`Sparse, "sparse"); (`Dense, "dense") ])
    cases

(* --- Allocation ------------------------------------------------------------ *)

(* Minor-heap words per pivot of one float session solve on a fixed
   covering program of 200 rows over 60 binary columns (the shape of the
   batch workload's self-join solves); session creation is outside the
   measurement.  The float units run their field operations inlined and
   unboxed and reuse the kernel's result buffers, so a pivot allocates
   little beyond its eta: about 180 words here.  The functor instance at
   [Float_field] boxes every intermediate float and reads about 3,000. *)
let test_pivot_allocation () =
  let rng = Random.State.make [| 1919 |] in
  let fz, _ = Harness.random_covering_frozen rng ~nvars:60 ~nrows:200 in
  let sess = FS.create_session fz in
  let piv0 = FS.session_pivots sess in
  let w0 = Gc.minor_words () in
  ignore (FS.session_solve sess no_fix);
  let words = Gc.minor_words () -. w0 in
  let pivots = FS.session_pivots sess - piv0 in
  Alcotest.(check bool) "the solve pivots" true (pivots >= 50);
  let per_pivot = words /. float_of_int pivots in
  if per_pivot > 600. then
    Alcotest.failf "%.0f minor words per pivot (%d pivots), bound 600" per_pivot pivots

let () =
  let q = Harness.qtest in
  Alcotest.run "lp"
    [
      ( "model",
        [
          Alcotest.test_case "building" `Quick test_model_building;
          Alcotest.test_case "check_feasible" `Quick test_check_feasible;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "known LP, both kernels" `Quick test_simplex_known;
          Alcotest.test_case "exact instance" `Quick test_simplex_exact_known;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "negative objectives rejected" `Quick test_negative_objective_rejected;
          Alcotest.test_case "equality rows" `Quick test_simplex_degenerate_equalities;
          Alcotest.test_case "fixed variables" `Quick test_simplex_fixed;
          Alcotest.test_case "fractional covering" `Quick test_fractional_covering;
          q prop_float_exact_dense_agree;
          q prop_solution_feasible;
        ] );
      ( "branch_bound",
        [
          Alcotest.test_case "triangle vertex cover" `Quick test_bb_triangle;
          Alcotest.test_case "integral root stops at node 1" `Quick test_bb_integral_root;
          Alcotest.test_case "infeasible" `Quick test_bb_infeasible;
          Alcotest.test_case "node limit" `Quick test_bb_node_limit;
          Alcotest.test_case "rejects general integers" `Quick test_bb_rejects_general_integers;
          Alcotest.test_case "exact = float" `Quick test_bb_exact_matches_float;
          q prop_bb_matches_bruteforce;
          q prop_bb_fields_kernels_agree;
          q prop_bb_warm_chain_matches_fresh;
        ] );
      ( "warm entry",
        [
          Alcotest.test_case "basic column fixed away" `Quick test_warm_fix_basic;
          Alcotest.test_case "released column re-priced" `Quick test_warm_release_reprices;
          Alcotest.test_case "over-upper fix leaves state" `Quick test_warm_over_upper_fix;
          Alcotest.test_case "two deltas alternated 50 times" `Quick test_warm_alternation;
          Alcotest.test_case "appends after warm solves" `Quick test_warm_appends;
        ] );
      ( "float units",
        [ Alcotest.test_case "match the functor bit for bit" `Quick
            test_float_units_match_functor ] );
      ("allocation", [ Alcotest.test_case "minor words per pivot" `Quick test_pivot_allocation ]);
    ]
