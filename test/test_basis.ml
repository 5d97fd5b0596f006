(* Direct units for the basis-factorisation kernels: the sparse LU kernel
   exercised against the dense reference inverse through full
   factor/update/solve cycles, singular-basis recovery, eta-window
   refactorisation pressure, and the exact-rational instantiation. *)

module F = Numeric.Field.Float_field
module D = Lp.Basis.Dense (F)
module S = Lp.Basis.Sparse_lu (F)
module FS = Lp.Solvers.Float_simplex
module ES = Lp.Solvers.Exact_simplex

let eps = 1e-6

let check_vec name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i ai ->
      if Float.abs (ai -. b.(i)) > eps then
        Alcotest.failf "%s[%d]: dense %.9g <> sparse %.9g" name i ai b.(i))
    a

(* A random sparse column universe of 2n columns over n rows: column j
   carries a unit diagonal at [j mod n] plus a few off-diagonal entries, so
   a permutation basis is almost surely invertible while staying sparse.
   Duplicate rows are dropped (kernels may treat them additively or not —
   the contract only covers well-formed columns). *)
let random_cols rng n =
  Array.init (2 * n) (fun j ->
      let seen = Hashtbl.create 4 in
      Hashtbl.replace seen (j mod n) ();
      let extras =
        List.filter_map
          (fun _ ->
            let i = Random.State.int rng n in
            if Hashtbl.mem seen i then None
            else begin
              Hashtbl.replace seen i ();
              Some (i, float_of_int (1 + Random.State.int rng 8) /. 4.)
            end)
          (List.init (Random.State.int rng 3) Fun.id)
      in
      (j mod n, 1.0) :: extras)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The workhorse: both kernels over the same random column universe, a
   random permutation basis, then a long interleaved stream of
   FTRAN/BTRAN/unit-BTRAN probes, basis updates and (kernel-paced)
   refactorisations.  Every probe must agree to tolerance; a genuinely
   singular random draw is skipped (both kernels raising is itself checked
   by the dedicated singularity test). *)
let prop_dense_vs_sparse_cycle =
  Harness.seeded_prop ~count:150 "sparse LU = dense inverse through factor/update/solve cycles"
    (fun rng ->
      let n = 3 + Random.State.int rng 14 in
      let cols = random_cols rng n in
      let col j = cols.(j) in
      let d = D.create ~nrows:n ~col in
      let s = S.create ~nrows:n ~col in
      let basis = Array.init n Fun.id in
      shuffle rng basis;
      let in_basis = Array.make (2 * n) false in
      Array.iter (fun j -> in_basis.(j) <- true) basis;
      try
        D.refactor d basis;
        S.refactor s basis;
        for _ = 1 to 30 do
          (* Probe round: one sparse FTRAN, one dense BTRAN, one unit row. *)
          let a =
            List.sort_uniq compare
              (List.init
                 (1 + Random.State.int rng 3)
                 (fun _ -> (Random.State.int rng n, float_of_int (1 + Random.State.int rng 5))))
          in
          check_vec "ftran" (D.ftran d a) (S.ftran s a);
          let c = Array.init n (fun _ -> float_of_int (Random.State.int rng 7) /. 2.) in
          check_vec "btran" (D.btran d c) (S.btran s c);
          let r = Random.State.int rng n in
          check_vec "btran_unit" (D.btran_unit d r) (S.btran_unit s r);
          (* Update round: bring in a column not in the basis when a sound
             pivot exists, keeping both kernels and the basis array in sync. *)
          let candidates =
            List.filter (fun j -> not in_basis.(j)) (List.init (2 * n) Fun.id)
          in
          (match candidates with
          | [] -> ()
          | _ ->
            let j = List.nth candidates (Random.State.int rng (List.length candidates)) in
            let wd = D.ftran d (col j) in
            let r = ref 0 in
            Array.iteri (fun i x -> if Float.abs x > Float.abs wd.(!r) then r := i) wd;
            if Float.abs wd.(!r) > 0.2 then begin
              let ws = S.ftran s (col j) in
              check_vec "entering ftran" wd ws;
              D.update d ~r:!r ~wcol:wd;
              S.update s ~r:!r ~wcol:ws;
              in_basis.(basis.(!r)) <- false;
              in_basis.(j) <- true;
              basis.(!r) <- j
            end);
          if S.should_refactor s then S.refactor s basis;
          if D.should_refactor d then D.refactor d basis
        done;
        true
      with Lp.Basis.Singular -> true)

(* Exact-rational instantiation: both kernels at Rat_field must agree with
   the float instantiation to tolerance on the covering programs the
   encoders emit (the frozen session path, the one production exercises). *)
let prop_exact_matches_float =
  Harness.seeded_prop ~count:80 "exact-rational kernels = float kernels on covering programs"
    (fun rng ->
      let nvars = 4 + Random.State.int rng 8 in
      let nrows = 4 + Random.State.int rng 10 in
      let fz, _ = Harness.random_covering_frozen rng ~nvars ~nrows in
      let agree kernel =
        match (FS.solve_frozen ~kernel fz, ES.solve_frozen ~kernel fz) with
        | FS.Optimal { objective = a; _ }, ES.Optimal { objective = b; _ } ->
          Float.abs (a -. Numeric.Rat.to_float b) <= 1e-6
        | FS.Infeasible, ES.Infeasible -> true
        | _ -> false
      in
      agree `Sparse && agree `Dense)

(* Slack-style unit column universe shared by the direct unit tests:
   ids 0..n-1 are structural columns, ids n..2n-1 the unit (slack) columns. *)
let unit_universe n structural =
  fun j -> if j < n then structural.(j) else [ (j - n, 1.0) ]

let all_slack n = Array.init n (fun i -> n + i)

let test_singular_recovery () =
  let n = 5 in
  (* Columns 0 and 1 are identical: any basis holding both is singular. *)
  let structural =
    [| [ (0, 1.0); (2, 1.0) ]; [ (0, 1.0); (2, 1.0) ]; [ (2, 1.0) ]; [ (3, 1.0) ]; [ (4, 2.0) ] |]
  in
  let col = unit_universe n structural in
  let check_kernel (type k) (module K : Lp.Basis.S with type elt = float and type t = k) (k : k)
      name =
    Alcotest.check_raises (name ^ " rejects a singular basis") Lp.Basis.Singular (fun () ->
        K.refactor k [| 0; 1; 2; 3; 4 |]);
    (* Recovery contract: after Singular the caller installs a known good
       basis and refactors again — the all-slack basis must always work. *)
    K.refactor k (all_slack n);
    let w = K.ftran k [ (2, 3.0) ] in
    Alcotest.(check (float 1e-9)) (name ^ " solves after recovery") 3.0 w.(2);
    Alcotest.(check int) (name ^ " eta file cleared") 0 (K.etas k)
  in
  check_kernel (module D) (D.create ~nrows:n ~col) "dense";
  check_kernel (module S) (S.create ~nrows:n ~col) "sparse"

let test_eta_window_overflow () =
  let n = 4 in
  let structural = [| [ (0, 2.0) ]; [ (1, 1.0) ]; [ (2, 1.0) ]; [ (3, 1.0) ] |] in
  let col = unit_universe n structural in
  let s = S.create ~nrows:n ~col in
  let basis = all_slack n in
  S.refactor s basis;
  (* Swap position 0 between the slack and the structural column until the
     kernel demands a refactorisation; the eta cap bounds the window. *)
  let forced = ref false in
  let iters = ref 0 in
  while (not !forced) && !iters < 200 do
    incr iters;
    let j = if basis.(0) = n then 0 else n in
    let w = S.ftran s (col j) in
    S.update s ~r:0 ~wcol:w;
    basis.(0) <- j;
    Alcotest.(check int) "etas counts updates" (!iters) (S.etas s);
    if S.should_refactor s then forced := true
  done;
  Alcotest.(check bool) "eta window overflow forces a refactor" true !forced;
  Alcotest.(check bool) "well before the safety iteration cap" true (!iters <= 64);
  (* The overloaded eta file must still answer correctly... *)
  let w = S.ftran s (col basis.(0)) in
  Alcotest.(check (float 1e-9)) "ftran through a full eta file" 1.0 w.(0);
  (* ...and refactoring drains it. *)
  S.refactor s basis;
  Alcotest.(check int) "refactor clears the eta file" 0 (S.etas s);
  Alcotest.(check bool) "no refactor pressure after refactor" false (S.should_refactor s);
  let st = S.stats s in
  Alcotest.(check int) "no eta entries after refactor" 0 st.Lp.Basis.eta_nnz

let test_stats_shape () =
  let n = 3 in
  let structural = [| [ (0, 1.0); (1, 0.5) ]; [ (1, 1.0) ]; [ (2, 1.0); (0, 0.25) ] |] in
  let col = unit_universe n structural in
  let s = S.create ~nrows:n ~col in
  S.refactor s [| 0; 1; 2 |];
  let st = S.stats s in
  Alcotest.(check int) "basis nnz" 5 st.Lp.Basis.basis_nnz;
  Alcotest.(check bool) "factor holds at least the basis nonzeros" true
    (st.Lp.Basis.factor_nnz >= n);
  Alcotest.(check int) "fresh factor has no etas" 0 st.Lp.Basis.etas

let () =
  Alcotest.run "basis"
    [
      ( "differential",
        [
          Harness.qtest prop_dense_vs_sparse_cycle;
          Harness.qtest prop_exact_matches_float;
        ] );
      ( "direct",
        [
          Alcotest.test_case "singular refactor recovery" `Quick test_singular_recovery;
          Alcotest.test_case "eta-window overflow" `Quick test_eta_window_overflow;
          Alcotest.test_case "stats shape" `Quick test_stats_shape;
        ] );
    ]
