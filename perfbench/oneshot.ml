(* oneshot: cold questions, as a CLI user asks them.  Each op loads a fresh
   small instance from its text, parses the query and answers one RES, RSP
   or all-solutions question with no state kept between ops — the path of
   [resil resilience|responsibility [--all-solutions] --data FILE].  The
   preparation layers (witnesses, encode, freeze, presolve, structure
   analysis) carry a large share of each op here. *)

open Relalg
open Resilience

let sem = Problem.Set

(* The paper's query classes, each with an instance shape sized so that an
   op takes milliseconds and no op comes near the node limit.  Cold RSP has
   a heavy tail on some classes: at 3 x 50 tuples one Q3chain instance in a
   few thousand took 1-2 s, and at 40 R tuples one Qz6 instance in some
   hundreds took 0.1-0.5 s, so that one or two of them decided a run's
   throughput.  At the sizes below the slowest of 3000 such questions took
   under 60 ms. *)
let classes =
  let r name arity count = { Gen.name; arity; count } in
  [
    ("Q2chain", "R(x,y), S(y,z)", 40, [ r "R" 2 80; r "S" 2 80 ]);
    ("Q3chain", "R(x,y), S(y,z), T(z,u)", 30, [ r "R" 2 40; r "S" 2 40; r "T" 2 40 ]);
    ("Q3star", "R(x), S(y), T(z), W(x,y,z)", 8, [ r "R" 1 6; r "S" 1 6; r "T" 1 6; r "W" 3 60 ]);
    ("Qtriangle", "R(x,y), S(y,z), T(z,x)", 14, [ r "R" 2 70; r "S" 2 70; r "T" 2 70 ]);
    ( "QtriangleA",
      "A(x), R(x,y), S(y,z), T(z,x)",
      14,
      [ r "A" 1 10; r "R" 2 70; r "S" 2 70; r "T" 2 70 ] );
    ("Qz6", "A(x), R(x,y), R(y,y), R(y,z), C(z)", 12, [ r "A" 1 8; r "R" 2 32; r "C" 1 8 ]);
    ("Q2chainSJ", "R(x,y), R(y,z)", 30, [ r "R" 2 50 ]);
  ]

type question = {
  cls : string;
  qtext : string;
  data : string;
  ask : [ `Res | `Rsp of string | `Enum of int * int ];  (* Enum (opt, family size) *)
  mutable verified : string option;  (* answer summary once cross-checked *)
}

(* Distinct questions generated in set-up and asked in turn, about a
   quarter of what a 20 s run asks: enough that the rare hard instance (a
   cold RSP of some tens of milliseconds) is one of several, so a run's mean
   and tail do not hang on one or two of them. *)
let pool_size = 2000

(* The [i]th question of the pool.  The mix is fixed by [i], the same for
   every seed: every twentieth an all-solutions question, the rest RES and
   RSP over the classes in turn.  The seed draws only the instances.  With
   that share the median load (write) falls inside one class's loads rather
   than on the edge between two, where it moved twice as much from run to
   run as the op latencies did. *)
let gen_question rng i =
  let j = i - (i / 20) in
  if i mod 20 = 19 then
    let c = Gen.group_chain rng ~groups:5 ~lo:2 ~hi:5 ~ties:1 in
    {
      cls = "Q2chain-enum";
      qtext = "R(x,y), S(y,z)";
      data = c.Gen.cdata;
      ask = `Enum (c.Gen.copt, c.Gen.csets);
      verified = None;
    }
  else begin
    let n = List.length classes in
    let cls, qtext, dom, rels = List.nth classes (j mod n) in
    let rsp = j / n mod 2 = 1 in
    (* Redraw the rare instance on which the query is false: it would be
       answered without reaching the solver. *)
    let rec draw () =
      let data = Gen.random_data rng ~dom rels in
      let db = Database_io.parse_string data in
      match Eval.witnesses (Cq_parser.parse_with db qtext) db with
      | [] -> draw ()
      | ws ->
        let ask =
          if not rsp then `Res
          else
            let w = List.nth ws (Random.State.int rng (List.length ws)) in
            let tuples = w.Eval.tuples in
            `Rsp (Database_io.print_tuple db tuples.(Random.State.int rng (Array.length tuples)))
        in
        { cls; qtext; data; ask; verified = None }
    in
    draw ()
  end

(* --- checks (outside the timed region) ------------------------------------ *)

let session_summary q db = function
  | `Res -> Chain.summary "res" (Chain.of_res (Session.resilience (Session.create sem q db)))
  | `Rsp t -> Chain.summary "rsp" (Chain.of_rsp (Session.responsibility (Session.create sem q db) t))

let point_name = function `Res -> "res" | `Rsp _ -> "rsp"

let check_point h qs q db which (ans : Chain.answer) =
  let prefix = point_name which in
  let s = Chain.summary prefix ans in
  (match ans with
  | Chain.Value (v, set) ->
    if List.length set <> v then Harness.fail h "%s: set size %d, value %d" qs.cls (List.length set) v;
    let ok =
      match which with
      | `Res -> Solve.verify_contingency sem q db set
      | `Rsp t -> Solve.verify_responsibility_set q db t set
    in
    if not ok then Harness.fail h "%s: %s set does not verify" qs.cls prefix
  | Chain.Budget -> Harness.fail h "%s: budget stop" qs.cls
  | Chain.Query_false | Chain.No_contingency -> ());
  (match qs.verified with
  | Some v -> if v <> s then Harness.fail h "%s: answer %s, earlier %s" qs.cls s v
  | None ->
    let fresh = session_summary q db which in
    if fresh <> s then Harness.fail h "%s: %s but a fresh Session says %s" qs.cls s fresh
    else qs.verified <- Some s)

let check_enum h q db ~opt ~sets fam =
  (match fam with
  | Session.Solved fam ->
    let n = List.length fam.Enumerate.sets in
    if fam.Enumerate.opt <> opt || n <> sets || not fam.Enumerate.exhausted then
      Harness.fail h "enum: opt %d with %d sets, expected %d with %d" fam.Enumerate.opt n opt sets;
    List.iter
      (fun set ->
        if List.length set <> opt || not (Solve.verify_contingency sem q db set) then
          Harness.fail h "enum: a set does not verify")
      fam.Enumerate.sets
  | Session.Query_false | Session.No_contingency | Session.Budget_exhausted _ ->
    Harness.fail h "enum: no family")

(* --- the workload --------------------------------------------------------- *)

let load qs =
  let db = Database_io.parse_string qs.data in
  (db, Cq_parser.parse_with db qs.qtext)

let ask h pool i =
  let qs = pool.(i) in
  let kind = match qs.ask with `Res -> Harness.Res | `Rsp _ -> Harness.Rsp | `Enum _ -> Harness.Enum in
  let result =
    Harness.op h kind (fun () ->
        let t0 = Harness.now () in
        let db, q = Harness.layer h "relalg.load" (fun () -> load qs) in
        Harness.record h "write" (Harness.now () -. t0);
        match qs.ask with
        | `Res -> `Point (`Res, Chain.resilience h sem q db)
        | `Rsp line -> (
          match Chain.find_tuple db line with
          | None -> `Missing
          | Some t -> `Point (`Rsp t, Chain.responsibility h sem q db t))
        | `Enum (opt, sets) ->
          let s = Chain.session_create h sem q db in
          `Enum (opt, sets, Chain.enumerate h s))
  in
  (match result with
  | `Missing -> Harness.fail h "%s: target tuple not in the instance" qs.cls
  | `Point (which, ans) -> Harness.answer h (Chain.summary (point_name which) ans)
  | `Enum (_, _, fam) -> Harness.answer h (Chain.enum_summary fam));
  if not h.Harness.traced then Harness.defer h (i, result)

(* A deferred check reloads its instance: ids are given in load order, so
   they are the ones the op saw. *)
let check h pool (i, result) =
  let qs = pool.(i) in
  match result with
  | `Missing -> ()
  | `Point (which, ans) ->
    let db, q = load qs in
    check_point h qs q db which ans
  | `Enum (opt, sets, fam) ->
    let db, q = load qs in
    check_enum h q db ~opt ~sets fam

let run h ~seed =
  let pool =
    Harness.setup h (fun () ->
        let rng = Random.State.make [| seed; 1 |] in
        let pool = Array.init pool_size (gen_question rng) in
        (* Warm-up: every class once, untimed, so lazy module state and the
           heap are settled before the first timed op. *)
        Array.iteri
          (fun i qs ->
            if i < 2 * List.length classes then begin
              let db = Database_io.parse_string qs.data in
              ignore (Solve.resilience sem (Cq_parser.parse_with db qs.qtext) db)
            end)
          pool;
        pool)
  in
  let i = ref 0 in
  while Harness.more h do
    ask h pool (!i mod pool_size);
    incr i
  done;
  Harness.finish h (check h pool)
