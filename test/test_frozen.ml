(* Direct units for the frozen CSR program form and its Delta bound
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

(* --- CSR ------------------------------------------------------------------ *)

let test_csr_sizes () =
  let m, _ = mixed_model () in
  let fz = Frozen.of_model m in
  Alcotest.(check int) "nnz = row entries" (List.length (row_entries fz)) (Frozen.nnz fz);
  let row_sizes = List.init (Frozen.num_rows fz) (Frozen.row_size fz) in
  Alcotest.(check int) "row sizes sum to nnz" (Frozen.nnz fz)
    (List.fold_left ( + ) 0 row_sizes)

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
  Alcotest.(check (pair int int)) "chain keeps its whole prefix" (1, 0)
    (Frozen.Delta.common_appends d1 d2);
  Alcotest.(check (pair int int)) "common prefix is symmetric" (1, 0)
    (Frozen.Delta.common_appends d2 d1);
  let fork = Frozen.Delta.append_row Model.Geq 2 [ (0, 1) ] d1 in
  Alcotest.(check (pair int int)) "a fork shares only its stem" (1, 0)
    (Frozen.Delta.common_appends d2 fork);
  Alcotest.(check bool) "the rows past the stem" true
    (Frozen.Delta.appended_rows_from fork 0 = [ (Model.Geq, 2, [ (0, 1) ]) ]
    && Frozen.Delta.appended_rows_from fork 1 = []
    && Frozen.Delta.appended_cols_from fork 0 = Frozen.Delta.appended_cols d1);
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

(* One random appended row over the first [total] variables: mostly a
   covering row, sometimes a packing or an equality row, so every slack
   kind is grown. *)
let random_row rng total d =
  let width = 1 + Random.State.int rng 3 in
  let picked = List.sort_uniq compare (List.init width (fun _ -> Random.State.int rng total)) in
  let expr = List.map (fun v -> (v, 1 + Random.State.int rng 2)) picked in
  match Random.State.int rng 6 with
  | 0 -> Frozen.Delta.append_row Model.Leq (1 + Random.State.int rng 2) expr d
  | 1 -> Frozen.Delta.append_row Model.Eq 1 expr d
  | _ -> Frozen.Delta.append_row Model.Geq 1 expr d

(* A random append walk: column epochs and row epochs on one chain, and
   now and then a step back to a shorter prefix of the branch, after which
   the walk grows along another branch.  Each emitted delta is the walk's
   position, sometimes with a bound fix on top. *)
let random_append_walk rng fz nsteps =
  let branch = ref [ Frozen.Delta.empty ] in
  let out = ref [] in
  for i = 0 to nsteps - 1 do
    let cur = List.hd !branch in
    let total = Frozen.num_vars fz + Frozen.Delta.num_appended_cols cur in
    (match Random.State.int rng 4 with
    | 0 when List.length !branch > 1 ->
      let back = 1 + Random.State.int rng (List.length !branch - 1) in
      branch := List.filteri (fun k _ -> k >= back) !branch
    | 0 | 1 ->
      let ncols = 1 + Random.State.int rng 2 in
      let d = ref cur in
      for k = 1 to ncols do
        let integer = Random.State.bool rng in
        let upper = if integer || Random.State.bool rng then Some 1 else None in
        d :=
          Frozen.Delta.append_col ~integer ?upper
            ~name:(Printf.sprintf "c%d_%d" i k)
            ~obj:(Random.State.int rng 4)
            !d
      done;
      if Random.State.bool rng then d := random_row rng (total + ncols) !d;
      branch := !d :: !branch
    | _ ->
      let d = ref cur in
      for _ = 1 to 1 + Random.State.int rng 2 do
        d := random_row rng total !d
      done;
      branch := !d :: !branch);
    let d = List.hd !branch in
    let total = Frozen.num_vars fz + Frozen.Delta.num_appended_cols d in
    let d =
      match Random.State.int rng 4 with
      | 0 -> Frozen.Delta.fix_zero (Random.State.int rng total) d
      | 1 -> Frozen.Delta.force_one (Random.State.int rng total) d
      | _ -> d
    in
    out := d :: !out
  done;
  List.rev !out

(* A relaxation and the pivots it took on the session. *)
let relax_work (type s e) (module B : Branch_bound.S with type session = s and type elt = e)
    (sess : s) delta =
  let p0, _ = B.session_work sess in
  let r = B.relax ~delta sess in
  let p1, _ = B.session_work sess in
  (r, p1 - p0)

(* Growing and rewinding one warm session = compiling the extended program
   afresh, at every step of a walk that rewinds.  The LP relaxation (float
   objectives within 1e-7, exact ones equal) and branch-and-bound (same
   status and objective) are solved in a random order on the one warm
   session per field and on fresh sessions over [Frozen.extend].  A step
   that rewinds restarts from the all-slack basis, so there the warm
   relaxation is the fresh one exactly: same pivots, same point.  A warm
   simplex session walked alongside answers the rounding check like
   [Frozen.check_feasible] on random 0/1 points and on the B&B optimum. *)
let prop_append_walk_equals_extend =
  Harness.seeded_prop ~count:150 "grown and rewound session = fresh extended session"
    (fun rng ->
      let nvars = 2 + Random.State.int rng 5 in
      let nrows = 1 + Random.State.int rng 5 in
      let fz, _ = Harness.random_covering_frozen ~integer:true rng ~nvars ~nrows in
      let walk = random_append_walk rng fz (3 + Random.State.int rng 8) in
      let warm_f = FB.create_session fz in
      let warm_e = EB.create_session fz in
      let warm_s = FS.create_session fz in
      let prev = ref Frozen.Delta.empty in
      List.for_all
        (fun delta ->
          let ext = Frozen.extend fz delta in
          let flat = Frozen.Delta.clear_appends delta in
          let rewound =
            Frozen.Delta.common_appends !prev delta
            <> (Frozen.Delta.num_appended_cols !prev, Frozen.Delta.num_appended_rows !prev)
          in
          prev := delta;
          let bb_first = (not rewound) && Random.State.bool rng in
          let float_ok =
            let relax () =
              match
                ( relax_work (module FB) warm_f delta,
                  relax_work (module FB) (FB.create_session ext) flat )
              with
              | (`Optimal (w, x), wp), (`Optimal (c, y), cp) ->
                if rewound then w = c && x = y && wp = cp else Float.abs (w -. c) < 1e-7
              | (`Infeasible, wp), (`Infeasible, cp) -> (not rewound) || wp = cp
              | _ -> false
            in
            let bb () =
              let w = FB.solve_session ~delta warm_f in
              let c = FB.solve_session ~delta:flat (FB.create_session ext) in
              w.FB.status = c.FB.status
              &&
              match (w.FB.objective, c.FB.objective) with
              | Some a, Some b -> Float.abs (a -. b) < 1e-6
              | None, None -> true
              | _ -> false
            in
            if bb_first then bb () && relax () else relax () && bb ()
          in
          let exact_ok =
            let relax () =
              match
                ( relax_work (module EB) warm_e delta,
                  relax_work (module EB) (EB.create_session ext) flat )
              with
              | (`Optimal (w, x), wp), (`Optimal (c, y), cp) ->
                Numeric.Rat.equal w c
                && ((not rewound) || (Array.for_all2 Numeric.Rat.equal x y && wp = cp))
              | (`Infeasible, wp), (`Infeasible, cp) -> (not rewound) || wp = cp
              | _ -> false
            in
            let bb () =
              let w = EB.solve_session ~delta warm_e in
              let c = EB.solve_session ~delta:flat (EB.create_session ext) in
              w.EB.status = c.EB.status
              &&
              match (w.EB.objective, c.EB.objective) with
              | Some a, Some b -> Numeric.Rat.equal a b
              | None, None -> true
              | _ -> false
            in
            if bb_first then bb () && relax () else relax () && bb ()
          in
          let feasible_ok =
            FS.session_absorb warm_s delta;
            let n = Frozen.num_vars ext in
            let points =
              List.init 4 (fun _ -> Array.init n (fun _ -> float_of_int (Random.State.int rng 2)))
            in
            let points =
              match (FB.solve_session ~delta warm_f).FB.solution with
              | Some x -> x :: points
              | None -> points
            in
            List.for_all
              (fun x -> FS.session_feasible warm_s delta x = Frozen.check_feasible ~delta fz x)
              points
          in
          float_ok && exact_ok && feasible_ok)
        walk)

(* Two branches that share an appended row but not the column it names:
   the row is kept by the common prefix of the appends, yet the column
   under it is dropped, so the rewind drops the row too and re-grows it
   over the new column. *)
let test_rewind_past_shared_row () =
  let m = Model.create () in
  let x = Model.add_var ~name:"x" ~integer:true ~upper:1 ~obj:3 m in
  Model.add_constr m [ (x, 1) ] Model.Geq 0;
  let fz = Frozen.of_model m in
  let row = Frozen.Delta.append_row Model.Geq 1 [ (x, 1); (1, 1) ] in
  let a = Frozen.Delta.empty |> Frozen.Delta.append_col ~upper:1 ~name:"a" ~obj:5 |> row in
  let b = Frozen.Delta.empty |> Frozen.Delta.append_col ~upper:1 ~name:"b" ~obj:1 |> row in
  Alcotest.(check (pair int int)) "the row is shared, the column is not" (0, 1)
    (Frozen.Delta.common_appends a b);
  let objective sess delta =
    match FS.session_solve sess delta with
    | FS.Optimal { objective; _ } -> objective
    | FS.Infeasible -> Alcotest.fail "expected a feasible program"
  in
  let warm = FS.create_session fz in
  List.iter
    (fun (d, want) ->
      Alcotest.(check (float 1e-9)) "fresh on the extended program" want
        (objective (FS.create_session (Frozen.extend fz d)) Frozen.Delta.empty);
      Alcotest.(check (float 1e-9)) "warm session" want (objective warm d))
    [ (a, 3.); (b, 1.); (a, 3.) ]

let () =
  Alcotest.run "frozen"
    [
      ( "structure",
        [
          Alcotest.test_case "CSR row sizes sum to nnz" `Quick test_csr_sizes;
          Alcotest.test_case "per-variable data" `Quick test_per_variable_data;
          Alcotest.test_case "row normal form" `Quick test_row_normal_form;
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
          Alcotest.test_case "rewind past a shared row" `Quick test_rewind_past_shared_row;
          Harness.qtest prop_append_walk_equals_extend;
        ] );
    ]
