(* Shared scaffolding for the test suites.

   Lives unlisted in the (tests ...) stanza, so every test executable links
   it.  Three layers:
   - seeded-property plumbing (every random test draws a seed through QCheck
     and replays deterministically from it),
   - random query instances (the workhorse of the differential suites),
   - random covering programs (the shape every encoder emits, shared by the
     LP and session suites). *)

open Relalg
open Resilience

(* --- Seeded properties ----------------------------------------------------- *)

(* Deterministic RNG from a fixed seed — the one way test code makes random
   draws, so every failure replays from the printed counterexample seed. *)
let rng_of seed = Random.State.make [| seed |]

(* The one property shape the suites use: QCheck draws a seed, the body gets
   the RNG for it. *)
let seeded_prop ?(max_seed = 1_000_000) ~count name body =
  QCheck.Test.make ~name ~count (QCheck.int_range 0 max_seed) (fun seed -> body (rng_of seed))

let qtest = QCheck_alcotest.to_alcotest

let qtests = List.map QCheck_alcotest.to_alcotest

(* --- Parsing shortcuts ----------------------------------------------------- *)

let parse = Cq_parser.parse

let parse_into db s = Cq_parser.parse_with db s

let query_pool () =
  [
    Queries.q2_chain ();
    Queries.q3_chain ();
    Queries.q2_star ();
    Queries.q_triangle ();
    Queries.q2_chain_sj ();
    Queries.q_confluence ();
  ]

(* A small random query-shaped instance with some exogenous tuples and a
   random semantics — the workhorse of the differential suites. *)
let random_case rng =
  let pool = query_pool () in
  let q = List.nth pool (Random.State.int rng (List.length pool)) in
  let count = 3 + Random.State.int rng 8 in
  let specs = Datagen.Random_inst.specs_of_query q ~count in
  let domain = 2 + Random.State.int rng 3 in
  let db = Datagen.Random_inst.db rng ~domain ~max_bag:2 specs in
  List.iter
    (fun info ->
      if Random.State.int rng 5 = 0 then Database.set_exo db info.Database.id true)
    (Database.tuples db);
  let sem = if Random.State.bool rng then Problem.Set else Problem.Bag in
  (sem, q, db)

(* A schema-shaped random instance (no query): [rels] is a (name, arity)
   list, each relation gets 1..nmax tuples over a [dom]-value domain with
   multiplicities up to [max_bag]. *)
let random_db rng rels nmax dom ~max_bag =
  let db = Database.create () in
  List.iter
    (fun (rel, arity) ->
      for _ = 1 to 1 + Random.State.int rng nmax do
        ignore
          (Database.add
             ~mult:(1 + Random.State.int rng max_bag)
             db rel
             (Array.init arity (fun _ -> Random.State.int rng dom)))
      done)
    rels;
  db

(* --- Random covering programs ----------------------------------------------- *)

(* The covering-family shape every encoder emits: cheap bounded variables,
   unit coefficients, >= 1 rows.  Returns the model together with its
   variables so callers can build deltas or read weights back. *)
let random_covering_model ?(integer = false) rng ~nvars ~nrows =
  let m = Lp.Model.create () in
  let vars =
    Array.init nvars (fun _ ->
        Lp.Model.add_var ~integer ~upper:1 ~obj:(1 + Random.State.int rng 5) m)
  in
  for _ = 1 to nrows do
    let width = 1 + Random.State.int rng 3 in
    let picked = List.init width (fun _ -> vars.(Random.State.int rng nvars)) in
    let picked = List.sort_uniq compare picked in
    Lp.Model.add_constr m (List.map (fun v -> (v, 1)) picked) Lp.Model.Geq 1
  done;
  (m, vars)

let random_covering_frozen ?integer rng ~nvars ~nrows =
  let m, vars = random_covering_model ?integer rng ~nvars ~nrows in
  (Lp.Frozen.of_model m, vars)

(* The reference ranking: a fresh encode + freeze + branch-and-bound per
   tuple, exactly what Solve.responsibility_ranking did before the session
   layer existed. *)
let reference_ranking ~exact sem q db =
  Database.tuples db
  |> List.filter_map (fun info ->
         let tid = info.Database.id in
         if Problem.tuple_exo q db tid then None
         else
           match Solve.responsibility ~exact sem q db tid with
           | Solve.Solved a -> Some (tid, a.Solve.rsp_value)
           | Solve.Query_false | Solve.No_contingency | Solve.Budget_exhausted _ -> None)
  |> List.stable_sort (fun (_, a) (_, b) -> compare a b)
