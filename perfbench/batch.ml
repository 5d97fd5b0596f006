(* batch: analytics on larger programs, where the simplex and
   branch-and-bound do nearly all the work and the serve codec none.
   Rounds of three op types, all set up in advance (load, session create
   and the lazy presolve are set-up cost):

   - rsp: one [Session.responsibility] delta-solve per endogenous witness
     tuple of a dense 2-chain instance — a full ranking, op by op;
   - enum: one [Session.enumerate_resilience] on a grouped 2-chain whose
     family size is fixed by construction;
   - res: one cold [Solve.resilience] on a self-join 2-chain loaded from
     its text inside the op, whose root LP is usually fractional, so
     branch-and-bound branches. *)

open Relalg
open Resilience

let sem = Problem.Set
let q2chain = "R(x,y), S(y,z)"
let q2chain_sj = "R(x,y), R(y,z)"

let rank_instances = 12
let enum_instances = 8
let enum_per_round = 2
let sj_instances = 300
let sj_per_round = 8

(* 62 of the 64 possible pairs per relation.  Delta-solves fall in two
   populations: most settle on a certified root in well under a millisecond,
   the rest branch and take several.  The median of all ops must sit inside
   the first, away from the knee between them, or it jumps from seed to
   seed: at 60 pairs and with twice the enum and res ops per round it sat
   at the knee and moved by a factor of two between seeds.  At this density
   and round shape about four ops in five are fast ones. *)
let rank_rels =
  let r name = { Gen.name; arity = 2; count = 62 } in
  [ r "R"; r "S" ]

let rank_dom = 8
let sj_rels = [ { Gen.name = "R"; arity = 2; count = 60 } ]
let sj_dom = 18

type 'a inst = {
  db : Database.t;
  q : Cq.t;
  payload : 'a;
  checked : (int, string) Hashtbl.t;  (* question -> verified answer summary *)
}

let inst data qtext payload =
  let db = Database_io.parse_string data in
  let q = Cq_parser.parse_with db qtext in
  { db; q; payload = payload db q; checked = Hashtbl.create 64 }

(* A prepared session: created, and its lazy shared presolve and engine
   forced by one resilience solve. *)
let prepared h db q =
  let s = Chain.session_create h sem q db in
  ignore (Harness.layer h "resilience.session" (fun () -> Session.resilience s));
  s

type state = {
  ranks : (Session.t * Database.tuple_id array) inst array;
  enums : (Session.t * Gen.chain) inst array;
  sjs : string inst array;  (* payload: the data text *)
}

let setup h ~seed () =
  let rng = Random.State.make [| seed; 3 |] in
  let rank_data = Array.init rank_instances (fun _ -> Gen.random_data rng ~dom:rank_dom rank_rels) in
  let chains =
    Array.init enum_instances (fun _ -> Gen.group_chain rng ~groups:6 ~lo:3 ~hi:7 ~ties:2)
  in
  let sj_data = Array.init sj_instances (fun _ -> Gen.random_data rng ~dom:sj_dom sj_rels) in
  let ranks = Array.map (fun data -> inst data q2chain (fun _ _ -> ())) rank_data in
  let enums = Array.map (fun c -> inst c.Gen.cdata q2chain (fun _ _ -> c)) chains in
  let sjs = Array.map (fun data -> inst data q2chain_sj (fun _ _ -> data)) sj_data in
  let with_session i payload = { i with payload = payload i.db i.q } in
  let ranks =
    Array.map
      (fun i ->
        with_session i (fun db q ->
            let targets =
              Eval.witnesses q db
              |> List.concat_map (fun w -> Array.to_list w.Eval.tuples)
              |> List.sort_uniq compare |> Array.of_list
            in
            (prepared h db q, targets)))
      ranks
  in
  let enums = Array.map (fun i -> with_session i (fun db q -> (prepared h db q, i.payload))) enums in
  { ranks; enums; sjs }

(* --- checks ---------------------------------------------------------------- *)

(* The first answer to each question is checked against an oracle; every
   later answer to it must repeat that one. *)
let remember h inst key summary ~oracle =
  match Hashtbl.find_opt inst.checked key with
  | Some v -> if v <> summary then Harness.fail h "answer %s, earlier %s" summary v
  | None ->
    (match oracle () with
    | Some expected when expected <> summary ->
      Harness.fail h "answer %s, oracle says %s" summary expected
    | _ -> ());
    Hashtbl.replace inst.checked key summary

(* A deferred check: the instance's index and the op's answer. *)
type check =
  | Rsp_answer of int * int * Chain.answer  (* ranking instance, target *)
  | Enum_answer of int * Enumerate.family Session.outcome
  | Res_answer of int * Chain.answer

let check h st = function
  | Rsp_answer (r, i, ans) ->
    let inst = st.ranks.(r) in
    let t = (snd inst.payload).(i) in
    (match ans with
    | Chain.Value (v, set) ->
      if List.length set <> v || not (Solve.verify_responsibility_set inst.q inst.db t set) then
        Harness.fail h "rsp set of tuple %d does not verify" t
    | Chain.Budget -> Harness.fail h "rsp: budget stop"
    | Chain.Query_false | Chain.No_contingency -> ());
    (* A deterministic eighth of the ranking is re-solved cold. *)
    remember h inst t (Chain.summary "rsp" ans) ~oracle:(fun () ->
        if i mod 8 = 0 then
          Some
            (Chain.summary "rsp"
               (Chain.of_rsp (Solve.responsibility ~node_limit:Chain.node_limit sem inst.q inst.db t)))
        else None)
  | Enum_answer (e, fam) ->
    let inst = st.enums.(e) in
    let c = snd inst.payload in
    (match fam with
    | Session.Solved f ->
      if f.Enumerate.opt <> c.Gen.copt || List.length f.Enumerate.sets <> c.Gen.csets
         || not f.Enumerate.exhausted
      then Harness.fail h "enum: expected %d sets of cost %d" c.Gen.csets c.Gen.copt;
      List.iter
        (fun set ->
          if List.length set <> c.Gen.copt || not (Solve.verify_contingency sem inst.q inst.db set)
          then Harness.fail h "enum: a set does not verify")
        f.Enumerate.sets
    | _ -> Harness.fail h "enum: no family");
    let summary = Chain.enum_summary fam in
    remember h inst 0 summary ~oracle:(fun () ->
        match (Enumerate.resilience_cold ~node_limit:Chain.node_limit sem inst.q inst.db, fam) with
        | Enumerate.Family cold, Session.Solved f ->
          if cold.Enumerate.sets <> f.Enumerate.sets then Some "enum (cold family differs)"
          else Some summary
        | _ -> Some "enum (no cold family)")
  | Res_answer (k, ans) ->
    let inst = st.sjs.(k) in
    (match ans with
    | Chain.Value (v, set) ->
      if List.length set <> v || not (Solve.verify_contingency sem inst.q inst.db set) then
        Harness.fail h "res set does not verify"
    | Chain.Budget -> Harness.fail h "res: budget stop"
    | Chain.Query_false | Chain.No_contingency -> ());
    remember h inst 0 (Chain.summary "res" ans) ~oracle:(fun () ->
        Some
          (match Hitting_set.resilience sem inst.q inst.db with
          | Some (v, _) -> Printf.sprintf "res %d" v
          | None -> "res none"))

(* --- the ops --------------------------------------------------------------- *)

let defer h c = if not h.Harness.traced then Harness.defer h c

let rsp_op h st r i =
  let s, targets = st.ranks.(r).payload in
  let out =
    Harness.op h Harness.Rsp (fun () ->
        Harness.layer h "resilience.session" (fun () ->
            Session.responsibility ~node_limit:Chain.node_limit s targets.(i)))
  in
  (match out with
  | Session.Solved a ->
    Harness.bump h "resilience.session.answered" 1.;
    if a.Session.rsp_stats.Session.certified then Harness.bump h "resilience.session.certified" 1.
  | _ -> ());
  let ans = Chain.of_rsp out in
  Harness.answer h (Chain.summary "rsp" ans);
  defer h (Rsp_answer (r, i, ans))

let enum_op h st e =
  let fam = Harness.op h Harness.Enum (fun () -> Chain.enumerate h (fst st.enums.(e).payload)) in
  Harness.answer h (Chain.enum_summary fam);
  defer h (Enum_answer (e, fam))

(* A cold solve starts from the instance's text, as the CLI does; the load
   is timed as a write of its own too.  Ids are given in load order, so the
   answer's ids are those of the set-up copy the check uses. *)
let res_op h st k =
  let ans =
    Harness.op h Harness.Res (fun () ->
        let t0 = Harness.now () in
        let db, q =
          Harness.layer h "relalg.load" (fun () ->
              let db = Database_io.parse_string st.sjs.(k).payload in
              (db, Cq_parser.parse_with db q2chain_sj))
        in
        Harness.record h "write" (Harness.now () -. t0);
        Chain.resilience h sem q db)
  in
  Harness.answer h (Chain.summary "res" ans);
  defer h (Res_answer (k, ans))

let run h ~seed =
  let st = Harness.setup h (setup h ~seed) in
  let round = ref 0 in
  while Harness.more h do
    let r = !round in
    let ri = r mod rank_instances in
    Array.iteri (fun i _ -> if Harness.more h then rsp_op h st ri i) (snd st.ranks.(ri).payload);
    for k = 0 to enum_per_round - 1 do
      if Harness.more h then enum_op h st (((r * enum_per_round) + k) mod enum_instances)
    done;
    for k = 0 to sj_per_round - 1 do
      if Harness.more h then res_op h st (((r * sj_per_round) + k) mod sj_instances)
    done;
    incr round
  done;
  Harness.finish h (check h st);
  if h.Harness.traced then
    Array.iter
      (fun (s, _) ->
        let p = Session.profile s in
        Harness.bump h "resilience.session.prep_s" p.Session.prep_s;
        Harness.bump h "resilience.session.solve_s" p.Session.solve_s;
        Harness.bump h "resilience.session.questions" (float_of_int p.Session.questions))
      (Array.append
         (Array.map (fun i -> (fst i.payload, ())) st.ranks)
         (Array.map (fun i -> (fst i.payload, ())) st.enums))
