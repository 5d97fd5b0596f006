open Relalg

type result = { value : int; tuples : Database.tuple_id list }

let weight_sum semantics db tids =
  List.fold_left (fun acc tid -> acc + Problem.weight semantics (Database.tuple db tid)) 0 tids

(* Round every tuple variable of a relaxation's optimal point [x] at
   threshold 1/m (Theorem 9.1, which holds for any optimal point). *)
let round_point semantics q db (enc : Encode.encoding) x =
  let threshold = (1.0 /. float_of_int (Array.length q.Cq.atoms)) -. 1e-9 in
  let tids =
    List.filter_map
      (fun (v, tid) -> if x.(v) >= threshold then Some tid else None)
      enc.Encode.tuple_of_var
  in
  { value = weight_sum semantics db tids; tuples = tids }

let lp_rounding_res semantics q db =
  Option.map
    (fun (_, enc, x) -> round_point semantics q db enc x)
    (Solve.resilience_lp_solution semantics q db)

(* MILP[RSP*]: the witness indicators integral, the tuple variables
   rounded. *)
let lp_rounding_rsp semantics q db t =
  match Encode.rsp Encode.Milp semantics q db t with
  | Encode.Trivial _ | Encode.Impossible -> None
  | Encode.Encoded enc -> (
    match
      Session.cold_solve ~op:"lp_rounding" ~exact:false enc ~answer:(fun _ x _ ->
          round_point semantics q db enc x)
    with
    | Session.Solved r -> Some r
    | Session.Query_false | Session.No_contingency | Session.Budget_exhausted _ -> None)

(* Sweep all m!/2 orderings with the given key mode and keep the cheapest
   finite cut. *)
let flow_sweep mode solve_one q db =
  let witnesses = Eval.witnesses q db in
  if witnesses = [] then None
  else begin
    let best = ref None in
    List.iter
      (fun order ->
        match solve_one ~order ~witnesses mode with
        | Some (value, tids) when not (Netflow.Maxflow.is_infinite value) -> (
          match !best with
          | Some { value = bv; _ } when bv <= value -> ()
          | _ -> best := Some { value; tuples = tids })
        | Some _ | None -> ())
      (Netflow.Linearize.all_orders q);
    !best
  end

let flow_res mode semantics q db =
  let weight = Problem.weight_fn semantics q db in
  flow_sweep mode
    (fun ~order ~witnesses mode ->
      let graph = Netflow.Flow_res.build q ~order ~weight ~db ~witnesses mode in
      Some (Netflow.Flow_res.resilience_cut graph))
    q db

let flow_rsp mode semantics q db t =
  let weight = Problem.weight_fn semantics q db in
  flow_sweep mode
    (fun ~order ~witnesses mode ->
      let graph = Netflow.Flow_res.build q ~order ~weight ~db ~witnesses mode in
      Netflow.Flow_res.responsibility_cut graph ~tuple:t)
    q db

let flow_ct_res semantics q db = flow_res Netflow.Flow_res.Adjacent semantics q db
let flow_cw_res semantics q db = flow_res Netflow.Flow_res.Spanning semantics q db
let flow_ct_rsp semantics q db t = flow_rsp Netflow.Flow_res.Adjacent semantics q db t
let flow_cw_rsp semantics q db t = flow_rsp Netflow.Flow_res.Spanning semantics q db t
