(* Direct units for the frozen CSR/CSC program form and its Delta bound
   overlays — the immutable substrate every solver stage consumes. *)

open Lp
module FB = Lp.Solvers.Float_bb
module FS = Lp.Solvers.Float_simplex
module ES = Lp.Solvers.Exact_simplex
module EB = Lp.Solvers.Exact_bb

let expect_invalid name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

(* A small mixed fixture touching every corner: a binary integer, bounded
   and unbounded continuous columns, a zero upper bound, all three row
   senses. *)
let mixed_model () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~integer:true ~upper:1 ~obj:2 m in
  let y = Model.add_var ~name:"y" ~upper:3 ~obj:1 m in
  let z = Model.add_var ~name:"z" ~upper:0 ~obj:5 m in
  let w = Model.add_var ~name:"w" m in
  Model.add_constr m [ (x, 1); (y, 2) ] Model.Geq 1;
  Model.add_constr m [ (y, 1); (z, 1); (w, 3) ] Model.Leq 4;
  Model.add_constr m [ (w, 1); (x, 1) ] Model.Eq 1;
  (m, (x, y, z, w))

let row_entries fz =
  List.concat
    (List.init (Frozen.num_rows fz) (fun i ->
         List.map (fun (v, c) -> (i, v, c)) (Frozen.row_expr fz i)))

let col_entries fz =
  let acc = ref [] in
  for v = 0 to Frozen.num_vars fz - 1 do
    Frozen.iter_col fz v (fun i c -> acc := (i, v, c) :: !acc)
  done;
  List.rev !acc

(* Structural equality of two frozen programs, field by field. *)
let programs_equal a b =
  Frozen.num_vars a = Frozen.num_vars b
  && Frozen.num_rows a = Frozen.num_rows b
  && Frozen.nnz a = Frozen.nnz b
  && List.for_all
       (fun v ->
         Frozen.objective a v = Frozen.objective b v
         && Frozen.upper a v = Frozen.upper b v
         && Frozen.is_integer a v = Frozen.is_integer b v
         && Frozen.var_name a v = Frozen.var_name b v)
       (List.init (Frozen.num_vars a) Fun.id)
  && List.for_all
       (fun i ->
         Frozen.row_sense a i = Frozen.row_sense b i
         && Frozen.row_rhs a i = Frozen.row_rhs b i
         && Frozen.row_expr a i = Frozen.row_expr b i)
       (List.init (Frozen.num_rows a) Fun.id)

(* --- CSR / CSC ------------------------------------------------------------- *)

let test_csr_csc_agree () =
  let m, _ = mixed_model () in
  let fz = Frozen.of_model m in
  Alcotest.(check int) "nnz = row entries" (List.length (row_entries fz)) (Frozen.nnz fz);
  Alcotest.(check (list (triple int int int))) "CSR entries = CSC entries"
    (List.sort compare (row_entries fz))
    (List.sort compare (col_entries fz));
  let row_sizes = List.init (Frozen.num_rows fz) (Frozen.row_size fz) in
  let col_sizes = List.init (Frozen.num_vars fz) (Frozen.col_size fz) in
  Alcotest.(check int) "row sizes sum to nnz" (Frozen.nnz fz)
    (List.fold_left ( + ) 0 row_sizes);
  Alcotest.(check int) "col sizes sum to nnz" (Frozen.nnz fz)
    (List.fold_left ( + ) 0 col_sizes)

let test_per_variable_data () =
  let m, (x, y, z, w) = mixed_model () in
  let fz = Frozen.of_model m in
  Alcotest.(check int) "obj x" 2 (Frozen.objective fz x);
  Alcotest.(check (option int)) "upper y" (Some 3) (Frozen.upper fz y);
  Alcotest.(check (option int)) "upper z is zero, not absent" (Some 0) (Frozen.upper fz z);
  Alcotest.(check (option int)) "w unbounded" None (Frozen.upper fz w);
  Alcotest.(check bool) "x integer" true (Frozen.is_integer fz x);
  Alcotest.(check bool) "y continuous" false (Frozen.is_integer fz y);
  Alcotest.(check (list int)) "integer vars" [ x ] (Frozen.integer_vars fz);
  Alcotest.(check string) "name" "z" (Frozen.var_name fz z)

let test_row_normal_form () =
  let m, (x, _, _, w) = mixed_model () in
  let fz = Frozen.of_model m in
  (* The Eq row was added as [(w, 1); (x, 1)]; rows are stored sorted by
     variable. *)
  Alcotest.(check (list (pair int int))) "sorted by variable" [ (x, 1); (w, 1) ]
    (Frozen.row_expr fz 2);
  Alcotest.(check bool) "sense preserved" true (Frozen.row_sense fz 2 = Model.Eq);
  Alcotest.(check int) "rhs preserved" 1 (Frozen.row_rhs fz 2)

(* --- Round-trips ------------------------------------------------------------ *)

let test_make_matches_of_model () =
  let m, _ = mixed_model () in
  let fz = Frozen.of_model m in
  let n = Frozen.num_vars fz in
  let made =
    Frozen.make
      ~names:(Array.init n (Frozen.var_name fz))
      ~integer:(Array.init n (Frozen.is_integer fz))
      ~upper:(Array.init n (Frozen.upper fz))
      ~obj:(Array.init n (Frozen.objective fz))
      ~rows:
        (Array.init (Frozen.num_rows fz) (fun i ->
             (Frozen.row_sense fz i, Frozen.row_rhs fz i, Frozen.row_expr fz i)))
  in
  Alcotest.(check bool) "make from accessors = of_model" true (programs_equal fz made)

let test_make_validates () =
  expect_invalid "unsorted row rejected" (fun () ->
      Frozen.make ~names:[| "a"; "b" |] ~integer:[| false; false |]
        ~upper:[| Some 1; Some 1 |] ~obj:[| 1; 1 |]
        ~rows:[| (Model.Geq, 1, [ (1, 1); (0, 1) ]) |]);
  expect_invalid "zero coefficient rejected" (fun () ->
      Frozen.make ~names:[| "a" |] ~integer:[| false |] ~upper:[| Some 1 |] ~obj:[| 1 |]
        ~rows:[| (Model.Geq, 0, [ (0, 0) ]) |]);
  expect_invalid "array length mismatch rejected" (fun () ->
      Frozen.make ~names:[| "a" |] ~integer:[| false; false |] ~upper:[| Some 1; Some 1 |]
        ~obj:[| 1; 1 |] ~rows:[||])

let prop_csr_csc_random =
  Harness.seeded_prop ~count:200 "CSR = CSC on random covers" (fun rng ->
      let nvars = 2 + Random.State.int rng 8 in
      let nrows = 1 + Random.State.int rng 8 in
      let fz, _ = Harness.random_covering_frozen rng ~nvars ~nrows in
      List.sort compare (row_entries fz) = List.sort compare (col_entries fz))

(* --- Delta overlays ---------------------------------------------------------- *)

let test_delta_persistence () =
  Alcotest.(check bool) "empty is empty" true (Frozen.Delta.is_empty Frozen.Delta.empty);
  let d1 = Frozen.Delta.fix_zero 0 Frozen.Delta.empty in
  let d2 = Frozen.Delta.force_one 1 d1 in
  Alcotest.(check bool) "non-empty" false (Frozen.Delta.is_empty d1);
  (* persistence: extending d1 must not mutate it *)
  Alcotest.(check (option int)) "parent unaffected by child" None (Frozen.Delta.find d1 1);
  Alcotest.(check (option int)) "child sees both" (Some 0) (Frozen.Delta.find d2 0);
  Alcotest.(check (list (pair int int))) "bindings ascending by variable" [ (0, 0); (1, 1) ]
    (Frozen.Delta.bindings d2);
  let d3 = Frozen.Delta.fix 0 1 d2 in
  Alcotest.(check (option int)) "re-fix replaces the override" (Some 1)
    (Frozen.Delta.find d3 0);
  Alcotest.(check (list (pair int int))) "one binding per variable" [ (0, 1); (1, 1) ]
    (List.sort compare (Frozen.Delta.bindings d3));
  let d4 = Frozen.Delta.release 1 d3 in
  Alcotest.(check (option int)) "release restores base bounds" None (Frozen.Delta.find d4 1);
  expect_invalid "negative constant rejected" (fun () ->
      Frozen.Delta.fix 0 (-1) Frozen.Delta.empty)

let test_delta_overlay_feasibility () =
  let m = Model.create () in
  let x = Model.add_var ~upper:1 ~obj:1 m in
  let y = Model.add_var ~upper:1 ~obj:1 m in
  Model.add_constr m [ (x, 1); (y, 1) ] Model.Geq 1;
  let fz = Frozen.of_model m in
  Alcotest.(check bool) "base point feasible" true (Frozen.check_feasible fz [| 1.0; 0.0 |]);
  let dx0 = Frozen.Delta.fix_zero x Frozen.Delta.empty in
  Alcotest.(check bool) "fix_zero violated by x=1" false
    (Frozen.check_feasible ~delta:dx0 fz [| 1.0; 0.0 |]);
  Alcotest.(check bool) "fix_zero satisfied by x=0" true
    (Frozen.check_feasible ~delta:dx0 fz [| 0.0; 1.0 |]);
  let dy1 = Frozen.Delta.force_one y Frozen.Delta.empty in
  Alcotest.(check bool) "force_one pins the value" false
    (Frozen.check_feasible ~delta:dy1 fz [| 1.0; 0.0 |]);
  Alcotest.(check bool) "released override restores base" true
    (Frozen.check_feasible ~delta:(Frozen.Delta.release x dx0) fz [| 1.0; 0.0 |])

(* Delta extension drives branch-and-bound: any solution returned under a
   delta satisfies every binding and the base program. *)
let prop_bb_respects_delta =
  Harness.seeded_prop ~count:200 "B&B solutions respect delta overlays" (fun rng ->
      let nvars = 3 + Random.State.int rng 6 in
      let nrows = 2 + Random.State.int rng 6 in
      let fz, vars = Harness.random_covering_frozen ~integer:true rng ~nvars ~nrows in
      let delta =
        Array.fold_left
          (fun d v ->
            match Random.State.int rng 4 with
            | 0 -> Frozen.Delta.fix_zero v d
            | 1 -> Frozen.Delta.force_one v d
            | _ -> d)
          Frozen.Delta.empty vars
      in
      let r = FB.solve_frozen ~delta fz in
      match r.FB.solution with
      | None -> r.FB.status = FB.Infeasible
      | Some x ->
        Frozen.check_feasible ~delta fz x
        && List.for_all
             (fun (v, k) -> Float.abs (x.(v) -. float_of_int k) < 1e-6)
             (Frozen.Delta.bindings delta))

(* --- Row/column appends ------------------------------------------------------ *)

(* A covering base plus one appended column and one appended row, written
   out by hand — [Frozen.extend] must produce exactly the program that
   [Frozen.make] builds from the combined data. *)
let test_extend_equals_rebuild () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~integer:true ~upper:1 ~obj:2 m in
  let y = Model.add_var ~name:"y" ~integer:true ~upper:1 ~obj:3 m in
  Model.add_constr m [ (x, 1); (y, 1) ] Model.Geq 1;
  let fz = Frozen.of_model m in
  let d =
    Frozen.Delta.empty
    |> Frozen.Delta.append_col ~integer:true ~upper:1 ~name:"a" ~obj:1
    |> Frozen.Delta.append_row Model.Geq 1 [ (y, 1); (2, 1) ]
  in
  Alcotest.(check int) "one appended col" 1 (Frozen.Delta.num_appended_cols d);
  Alcotest.(check int) "one appended row" 1 (Frozen.Delta.num_appended_rows d);
  let ext = Frozen.extend fz d in
  let want =
    Frozen.make
      ~names:[| "x"; "y"; "a" |]
      ~integer:[| true; true; true |]
      ~upper:[| Some 1; Some 1; Some 1 |]
      ~obj:[| 2; 3; 1 |]
      ~rows:[| (Model.Geq, 1, [ (0, 1); (1, 1) ]); (Model.Geq, 1, [ (1, 1); (2, 1) ]) |]
  in
  Alcotest.(check bool) "extend = rebuild" true (programs_equal ext want);
  (* CSR/CSC stay in lockstep on the extended program *)
  Alcotest.(check (list (triple int int int))) "extended CSR = CSC"
    (List.sort compare (row_entries ext))
    (List.sort compare (col_entries ext));
  (* no appends: extend is the identity *)
  Alcotest.(check bool) "no-append extend is the same program" true
    (fz == Frozen.extend fz (Frozen.Delta.fix_zero x Frozen.Delta.empty))

let test_append_validation () =
  expect_invalid "negative upper rejected" (fun () ->
      Frozen.Delta.append_col ~upper:(-1) ~name:"bad" ~obj:0 Frozen.Delta.empty);
  expect_invalid "zero coefficient rejected" (fun () ->
      Frozen.Delta.append_row Model.Geq 1 [ (0, 0) ] Frozen.Delta.empty);
  expect_invalid "negative var rejected" (fun () ->
      Frozen.Delta.append_row Model.Geq 1 [ (-1, 1) ] Frozen.Delta.empty);
  (* a row referencing a variable past base + appends fails at extend *)
  let m = Model.create () in
  ignore (Model.add_var ~upper:1 ~obj:1 m);
  let fz = Frozen.of_model m in
  expect_invalid "out-of-range row var rejected at extend" (fun () ->
      Frozen.extend fz (Frozen.Delta.append_row Model.Geq 1 [ (5, 1) ] Frozen.Delta.empty))

let test_append_chain_sharing () =
  let d1 = Frozen.Delta.append_col ~name:"a" ~obj:1 Frozen.Delta.empty in
  let d2 = Frozen.Delta.append_row Model.Geq 1 [ (0, 1) ] d1 in
  Alcotest.(check bool) "has_appends" true (Frozen.Delta.has_appends d2);
  Alcotest.(check bool) "chain extends its prefix" true (Frozen.Delta.extends ~prefix:d1 d2);
  Alcotest.(check bool) "prefix does not extend the chain" false
    (Frozen.Delta.extends ~prefix:d2 d1);
  Alcotest.(check bool) "same_appends ignores bindings" true
    (Frozen.Delta.same_appends d2 (Frozen.Delta.fix_zero 0 d2));
  let cleared = Frozen.Delta.clear_appends d2 in
  Alcotest.(check bool) "clear_appends drops the chain" false
    (Frozen.Delta.has_appends cleared);
  (* bindings survive the clearing *)
  Alcotest.(check (option int)) "bindings kept" (Some 0)
    (Frozen.Delta.find (Frozen.Delta.clear_appends (Frozen.Delta.fix_zero 0 d2)) 0)

let test_append_check_feasible () =
  let m = Model.create () in
  let x = Model.add_var ~upper:1 ~obj:1 m in
  let y = Model.add_var ~upper:1 ~obj:1 m in
  Model.add_constr m [ (x, 1); (y, 1) ] Model.Geq 1;
  let fz = Frozen.of_model m in
  let d =
    Frozen.Delta.empty
    |> Frozen.Delta.append_col ~upper:1 ~name:"a" ~obj:1
    |> Frozen.Delta.append_row Model.Geq 1 [ (y, 1); (2, 1) ]
  in
  (* x is indexed by extended variable: base point alone no longer typechecks
     the appended row *)
  Alcotest.(check bool) "appended row violated" false
    (Frozen.check_feasible ~delta:d fz [| 1.0; 0.0; 0.0 |]);
  Alcotest.(check bool) "appended col can cover the appended row" true
    (Frozen.check_feasible ~delta:d fz [| 1.0; 0.0; 1.0 |]);
  Alcotest.(check bool) "base solution with y covers both" true
    (Frozen.check_feasible ~delta:d fz [| 0.0; 1.0; 0.0 |])

(* A random monotone append chain over any covering base.  Built strictly
   left to right so every draw order is deterministic per seed. *)
let random_append_chain rng fz nsteps =
  let total = ref (Frozen.num_vars fz) in
  let d = ref Frozen.Delta.empty in
  let acc = ref [] in
  for i = 0 to nsteps - 1 do
    if Random.State.bool rng then begin
      d :=
        Frozen.Delta.append_col
          ~integer:(Random.State.bool rng)
          ~upper:1
          ~name:(Printf.sprintf "a%d" i)
          ~obj:(Random.State.int rng 4)
          !d;
      incr total
    end;
    if Random.State.int rng 4 > 0 then begin
      let width = 1 + Random.State.int rng 2 in
      let picked = ref [] in
      for _ = 1 to width do
        picked := Random.State.int rng !total :: !picked
      done;
      let picked = List.sort_uniq compare !picked in
      d := Frozen.Delta.append_row Model.Geq 1 (List.map (fun v -> (v, 1)) picked) !d
    end;
    acc := !d :: !acc
  done;
  List.rev !acc

(* Warm absorb = cold re-freeze, at float and at exact rationals: a session
   fed the growing chain must report the same LP optimum as a fresh session
   on the materialised [Frozen.extend] program, and the same holds for the
   integer optimum through branch-and-bound. *)
let prop_append_warm_equals_refreeze =
  Harness.seeded_prop ~count:150 "warm append absorb = cold re-freeze (float + exact)"
    (fun rng ->
      let nvars = 2 + Random.State.int rng 5 in
      let nrows = 1 + Random.State.int rng 5 in
      let fz, _ = Harness.random_covering_frozen ~integer:true rng ~nvars ~nrows in
      let chain = random_append_chain rng fz (1 + Random.State.int rng 4) in
      let warm_f = FS.create_session fz in
      let warm_e = ES.create_session fz in
      List.for_all
        (fun delta ->
          let ext = Frozen.extend fz delta in
          let flat = Frozen.Delta.clear_appends delta in
          let float_ok =
            match (FS.session_solve warm_f delta, FS.session_solve (FS.create_session ext) flat) with
            | FS.Optimal { objective = wo; solution = ws }, FS.Optimal { objective = co; _ } ->
              Float.abs (wo -. co) < 1e-7 && Frozen.check_feasible ~delta fz ws
            | FS.Infeasible, FS.Infeasible -> true
            | _ -> false
          in
          let exact_ok =
            match (ES.session_solve warm_e delta, ES.session_solve (ES.create_session ext) flat) with
            | ES.Optimal { objective = wo; _ }, ES.Optimal { objective = co; _ } ->
              Numeric.Rat.equal wo co
            | ES.Infeasible, ES.Infeasible -> true
            | _ -> false
          in
          let bb_ok =
            let w = FB.solve_frozen ~delta fz in
            let c = EB.solve_frozen ~delta fz in
            match (w.FB.status, w.FB.objective, c.EB.status, c.EB.objective) with
            | FB.Optimal, Some fo, EB.Optimal, Some eo ->
              Float.abs (fo -. Numeric.Rat.to_float eo) < 1e-6
            | FB.Infeasible, _, EB.Infeasible, _ -> true
            | _ -> false
          in
          float_ok && exact_ok && bb_ok)
        chain)

let () =
  Alcotest.run "frozen"
    [
      ( "structure",
        [
          Alcotest.test_case "CSR and CSC agree" `Quick test_csr_csc_agree;
          Alcotest.test_case "per-variable data" `Quick test_per_variable_data;
          Alcotest.test_case "row normal form" `Quick test_row_normal_form;
          Harness.qtest prop_csr_csc_random;
        ] );
      ( "round-trip",
        [
          Alcotest.test_case "make from accessors" `Quick test_make_matches_of_model;
          Alcotest.test_case "make validates input" `Quick test_make_validates;
        ] );
      ( "delta",
        [
          Alcotest.test_case "persistent overlays" `Quick test_delta_persistence;
          Alcotest.test_case "overlay feasibility" `Quick test_delta_overlay_feasibility;
          Harness.qtest prop_bb_respects_delta;
        ] );
      ( "appends",
        [
          Alcotest.test_case "extend = rebuild" `Quick test_extend_equals_rebuild;
          Alcotest.test_case "append validation" `Quick test_append_validation;
          Alcotest.test_case "chain sharing" `Quick test_append_chain_sharing;
          Alcotest.test_case "check_feasible over appends" `Quick test_append_check_feasible;
          Harness.qtest prop_append_warm_equals_refreeze;
        ] );
    ]
