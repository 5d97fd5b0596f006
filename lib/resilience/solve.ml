open Relalg

type stats = Session.stats = {
  nodes : int;
  root_lp : float;
  root_integral : bool;
  certified : bool;
  solve_time : float;
  prep_time : float;
  pivots : int;
  refactors : int;
}

type 'a outcome = 'a Session.outcome =
  | Solved of 'a
  | Query_false
  | No_contingency
  | Budget_exhausted of int option

type res_answer = Session.res_answer = {
  res_value : int;
  contingency : Database.tuple_id list;
  res_stats : stats;
}

type rsp_answer = Session.rsp_answer = {
  rsp_value : int;
  responsibility_set : Database.tuple_id list;
  rsp_stats : stats;
}

let resilience ?(exact = false) ?node_limit ?time_limit semantics q db =
  match Encode.res Encode.Ilp semantics q db with
  | Encode.Trivial _ -> Query_false
  | Encode.Impossible -> No_contingency
  | Encode.Encoded enc ->
    Session.cold_solve ?node_limit ?time_limit ~op:"resilience" ~exact enc
      ~answer:(fun res_value x res_stats ->
        { res_value; contingency = Encode.contingency enc x; res_stats })

let resilience_lp_solution ?(exact = false) semantics q db =
  match Encode.res Encode.Lp semantics q db with
  | Encode.Trivial _ | Encode.Impossible -> None
  | Encode.Encoded enc -> (
    match Session.cold_lp ~exact enc with
    | None -> None
    | Some (obj, sol) -> Some (obj, enc, sol))

let resilience_lp ?exact semantics q db =
  Option.map (fun (obj, _, _) -> obj) (resilience_lp_solution ?exact semantics q db)

let responsibility ?(exact = false) ?node_limit ?time_limit
    ?(relaxation = Encode.Ilp) semantics q db t =
  match Encode.rsp relaxation semantics q db t with
  | Encode.Trivial _ -> Query_false
  | Encode.Impossible -> No_contingency
  | Encode.Encoded enc ->
    Session.cold_solve ?node_limit ?time_limit ~op:"responsibility" ~exact enc
      ~answer:(fun rsp_value x rsp_stats ->
        { rsp_value; responsibility_set = Encode.contingency enc x; rsp_stats })

let responsibility_lp ?(exact = false) semantics q db t =
  match Encode.rsp Encode.Lp semantics q db t with
  | Encode.Trivial _ | Encode.Impossible -> None
  | Encode.Encoded enc -> Option.map fst (Session.cold_lp ~exact enc)

let enumerate_resilience ?exact ?node_limit ?time_limit ?jobs ?cap semantics q db =
  Session.enumerate_resilience ?node_limit ?time_limit ?jobs ?cap
    (Session.create ?exact semantics q db)

let enumerate_responsibility ?exact ?node_limit ?time_limit ?jobs ?cap semantics q db
    t =
  Session.enumerate_responsibility ?node_limit ?time_limit ?jobs ?cap
    (Session.create ?exact semantics q db)
    t

let responsibility_ranking ?exact semantics q db =
  Session.ranking (Session.create ?exact semantics q db)

(* --- Flow baseline ------------------------------------------------------ *)

let linearize_by_domination semantics q =
  match semantics with
  | Problem.Bag -> q
  | Problem.Set ->
    List.fold_left (fun q' i -> Cq.set_exo q' i true) q (Analysis.dominated_atoms q)

(* Fully dominated atoms may be made exogenous for responsibility
   (Theorem 8.12). *)
let linearize_for_rsp semantics q =
  match semantics with
  | Problem.Bag -> q
  | Problem.Set ->
    List.fold_left
      (fun q' i -> if Analysis.fully_dominated q i then Cq.set_exo q' i true else q')
      q
      (List.init (Array.length q.Cq.atoms) (fun i -> i))

let flow_stats t0 =
  {
    nodes = 1;
    root_lp = nan;
    root_integral = true;
    certified = false;
    solve_time = Obs.Clock.elapsed t0;
    prep_time = 0.;
    pivots = 0;
    refactors = 0;
  }

let resilience_flow semantics q db =
  let q' = linearize_by_domination semantics q in
  (* Under a self-join one tuple feeds edges at several positions of the
     order, so the min-cut can double-count its deletion and overestimate
     RES* — the classical encoding is only exact self-join-free (found by
     the differential fuzzer: flow 2 vs ILP 1 on QchainABC with a shared
     R).  Report "no exact flow algorithm" rather than a wrong value. *)
  if not (Cq.self_join_free q') then None
  else
  match Netflow.Linearize.exact_orders q' with
  | [] -> None
  | order :: _ ->
    let t0 = Obs.Clock.now () in
    let witnesses = Eval.witnesses q' db in
    if witnesses = [] then Some Query_false
    else begin
      let weight = Problem.weight_fn semantics q' db in
      let graph = Netflow.Flow_res.build q' ~order ~weight ~db ~witnesses Netflow.Flow_res.Spanning in
      let value, cut = Netflow.Flow_res.resilience_cut graph in
      if Netflow.Maxflow.is_infinite value then Some No_contingency
      else Some (Solved { res_value = value; contingency = cut; res_stats = flow_stats t0 })
    end

let responsibility_flow semantics q db t =
  let q' = linearize_for_rsp semantics q in
  if not (Cq.self_join_free q') then None
  else
  match Netflow.Linearize.exact_orders q' with
  | [] -> None
  | order :: _ ->
    let t0 = Obs.Clock.now () in
    let witnesses = Eval.witnesses q' db in
    if witnesses = [] then Some Query_false
    else begin
      let weight = Problem.weight_fn semantics q' db in
      let graph = Netflow.Flow_res.build q' ~order ~weight ~db ~witnesses Netflow.Flow_res.Spanning in
      match Netflow.Flow_res.responsibility_cut graph ~tuple:t with
      | None -> Some No_contingency
      | Some (value, cut) ->
        if Netflow.Maxflow.is_infinite value then Some No_contingency
        else Some (Solved { rsp_value = value; responsibility_set = cut; rsp_stats = flow_stats t0 })
    end

(* --- Verification helpers ----------------------------------------------- *)

(* Contingency sets can be large on generated instances; membership via a
   hash set keeps verification linear in the database. *)
let id_set tids =
  let set = Hashtbl.create (List.length tids * 2) in
  List.iter (fun tid -> Hashtbl.replace set tid ()) tids;
  set

let verify_contingency _semantics q db gamma =
  let dead = id_set gamma in
  let db' = Database.restrict db (fun info -> not (Hashtbl.mem dead info.Database.id)) in
  not (Eval.holds q db')

let verify_responsibility_set q db t gamma =
  let dead = id_set gamma in
  (not (Hashtbl.mem dead t))
  &&
  let db' = Database.restrict db (fun info -> not (Hashtbl.mem dead info.Database.id)) in
  Eval.holds q db'
  &&
  let db'' = Database.restrict db' (fun info -> info.Database.id <> t) in
  not (Eval.holds q db'')
