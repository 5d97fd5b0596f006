(* The fuzzing library itself: seed-deterministic generation, the
   delta-debugging shrinker, the corpus file format, and replay of the
   committed counterexample corpus. *)

open Check

(* Two cases are the same iff they print the same — the corpus format
   covers every observable field of a case. *)
let fingerprint case = Corpus.to_string { Corpus.oracle = "fp"; message = "fp"; case }

(* --- Generator determinism --------------------------------------------------- *)

let test_stream_deterministic () =
  let a = Gen.stream ~seed:42 25 in
  let b = Gen.stream ~seed:42 25 in
  List.iter2
    (fun x y ->
      Alcotest.(check int) "case seed" x.Gen.seed y.Gen.seed;
      Alcotest.(check string) "profile" x.Gen.profile y.Gen.profile;
      Alcotest.(check string) "case body" (fingerprint x) (fingerprint y))
    a b;
  let c = Gen.stream ~seed:43 25 in
  Alcotest.(check bool) "different run seed, different stream" true
    (List.map (fun x -> x.Gen.seed) a <> List.map (fun x -> x.Gen.seed) c)

let test_of_seed_reproducible () =
  (* A case regenerates from its own seed alone, independent of the stream
     it was drawn from. *)
  List.iter
    (fun case ->
      let again = Gen.of_seed case.Gen.seed in
      Alcotest.(check string) "profile" case.Gen.profile again.Gen.profile;
      Alcotest.(check string) "body" (fingerprint case) (fingerprint again))
    (Gen.stream ~seed:7 25)

let test_profiles_all_reachable () =
  let seen = List.map (fun c -> c.Gen.profile) (Gen.stream ~seed:1 400) in
  List.iter
    (fun p -> Alcotest.(check bool) ("profile " ^ p ^ " generated") true (List.mem p seen))
    Gen.profiles

(* --- Corpus round-trip -------------------------------------------------------- *)

let test_corpus_roundtrip () =
  List.iter
    (fun case ->
      let e = { Corpus.oracle = "unit"; message = "round trip"; case } in
      let s = Corpus.to_string e in
      let e' = Corpus.of_string s in
      Alcotest.(check string) "oracle" e.Corpus.oracle e'.Corpus.oracle;
      Alcotest.(check string) "message" e.Corpus.message e'.Corpus.message;
      Alcotest.(check int) "seed" case.Gen.seed e'.Corpus.case.Gen.seed;
      Alcotest.(check string) "reprint is identical" s (Corpus.to_string e'))
    (Gen.stream ~seed:11 25)

(* Non-negative costs are an invariant of every program: a case file that
   declares a negative objective (on a base or an appended column) is
   refused as malformed input. *)
let test_corpus_negative_objective () =
  let case extra =
    String.concat "\n"
      ([ "# kind: lp"; "# oracle: lp_warm_vs_cold"; "# seed: 1"; "# var: cont 1 1 x0" ] @ extra)
  in
  List.iter
    (fun (name, extra, spec) ->
      Alcotest.check_raises name
        (Invalid_argument ("corpus: negative objective in var line " ^ spec))
        (fun () -> ignore (Corpus.of_string (case extra))))
    [
      ("base column", [ "# var: cont 1 -2 x1" ], "cont 1 -2 x1");
      ("appended column", [ "# delta: c cont 1 -1 y0" ], "cont 1 -1 y0");
    ]

(* --- Shrinker ----------------------------------------------------------------- *)

(* A synthetic bug with a known minimal repro: "two or more R tuples is a
   discrepancy".  Whatever failing case the stream offers, the shrinker
   must bring it down to exactly two R tuples and nothing else, with
   multiplicities 1 and exogenous flags cleared. *)
let r_count db =
  List.length
    (List.filter (fun info -> info.Relalg.Database.rel = "R") (Relalg.Database.tuples db))

let synthetic =
  {
    Oracle.name = "synthetic";
    descr = "fails when the database has two or more R tuples";
    applies = (fun case -> match case.Gen.shape with Gen.Db _ -> true | Gen.Lp _ -> false);
    check =
      (fun case ->
        match case.Gen.shape with
        | Gen.Db { Gen.db; _ } when r_count db >= 2 -> Oracle.Fail "too many R tuples"
        | _ -> Oracle.Pass);
  }

let test_shrinker_minimizes () =
  let case =
    List.find
      (fun c ->
        match c.Gen.shape with
        | Gen.Db { Gen.db; _ } -> r_count db >= 2
        | Gen.Lp _ -> false)
      (Gen.stream ~seed:5 50)
  in
  let shrunk, msg = Shrink.shrink synthetic case in
  Alcotest.(check string) "still failing after shrinking" "too many R tuples" msg;
  match shrunk.Gen.shape with
  | Gen.Db { Gen.db; _ } ->
    Alcotest.(check int) "minimal: exactly two R tuples" 2 (r_count db);
    Alcotest.(check int) "no other tuples survive" 2
      (List.length (Relalg.Database.tuples db));
    List.iter
      (fun info ->
        Alcotest.(check int) "multiplicity shrunk to 1" 1 info.Relalg.Database.mult;
        Alcotest.(check bool) "exogenous flag cleared" false info.Relalg.Database.exo)
      (Relalg.Database.tuples db)
  | Gen.Lp _ -> Alcotest.fail "expected a db case"

let test_shrinker_passing_case_unchanged () =
  let case = List.hd (Gen.stream ~seed:3 1) in
  let never_fails =
    { synthetic with Oracle.name = "pass"; check = (fun _ -> Oracle.Pass) }
  in
  let back, msg = Shrink.shrink never_fails case in
  Alcotest.(check string) "no message" "" msg;
  Alcotest.(check string) "case untouched" (fingerprint case) (fingerprint back)

(* --- Oracle selection ---------------------------------------------------------- *)

let test_oracle_select () =
  (match Oracle.select [ "sandwich"; "warm_vs_cold" ] with
  | Ok os ->
    Alcotest.(check (list string)) "resolved in order" [ "sandwich"; "warm_vs_cold" ]
      (List.map (fun o -> o.Oracle.name) os)
  | Error e -> Alcotest.fail e);
  match Oracle.select [ "sandwich"; "nonsense" ] with
  | Ok _ -> Alcotest.fail "unknown oracle accepted"
  | Error e -> Alcotest.(check string) "names the unknown oracle" "nonsense" e

(* --- Fuzz loop ----------------------------------------------------------------- *)

let test_fuzz_clean_and_deterministic () =
  let r = Fuzz.run ~instances:15 ~seed:42 () in
  Alcotest.(check int) "instances" 15 r.Fuzz.instances;
  Alcotest.(check (list string)) "no discrepancies" []
    (List.map (fun d -> d.Fuzz.message) r.Fuzz.discrepancies);
  let r' = Fuzz.run ~instances:15 ~seed:42 () in
  Alcotest.(check int) "identical check count on replay" r.Fuzz.checks r'.Fuzz.checks

(* --- Committed corpus replays clean --------------------------------------------- *)

(* ../examples/fuzz-corpus is a dune dep of this test, so every committed
   counterexample is re-checked by `dune runtest` (which runs in test/);
   fall back to the repo-root layout for a bare `dune exec`. *)
let corpus_dir =
  let local = Filename.concat "examples" "fuzz-corpus" in
  if Sys.file_exists local then local else Filename.concat ".." local

let test_corpus_replays_clean () =
  let results = Fuzz.replay_corpus ~dir:corpus_dir in
  Alcotest.(check bool) "corpus is not empty" true (results <> []);
  List.iter
    (fun r ->
      match r.Fuzz.verdict with
      | Oracle.Pass -> ()
      | Oracle.Fail m -> Alcotest.fail (Printf.sprintf "%s: %s" r.Fuzz.path m))
    results

let () =
  Alcotest.run "check"
    [
      ( "gen",
        [
          Alcotest.test_case "stream is seed-deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "of_seed reproduces cases" `Quick test_of_seed_reproducible;
          Alcotest.test_case "every profile is reachable" `Quick test_profiles_all_reachable;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "to_string/of_string round-trip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "negative objective rejected" `Quick test_corpus_negative_objective;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes to the known repro" `Quick test_shrinker_minimizes;
          Alcotest.test_case "passing cases unchanged" `Quick test_shrinker_passing_case_unchanged;
        ] );
      ("oracle", [ Alcotest.test_case "select resolves and rejects" `Quick test_oracle_select ]);
      ( "fuzz",
        [
          Alcotest.test_case "clean deterministic run" `Slow test_fuzz_clean_and_deterministic;
          Alcotest.test_case "committed corpus replays clean" `Quick test_corpus_replays_clean;
        ] );
    ]
