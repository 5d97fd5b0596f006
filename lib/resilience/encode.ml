open Relalg

type relaxation = Ilp | Milp | Lp

type encoding = {
  model : Lp.Model.t;
  tuple_of_var : (Lp.Model.var * Database.tuple_id) list;
  var_of_tuple : (Database.tuple_id, Lp.Model.var) Hashtbl.t;
  witness_vars : Lp.Model.var list;
}

type outcome = Encoded of encoding | Trivial of int | Impossible

(* --- The program format ---------------------------------------------------- *)

type columns = {
  col_of_tuple : (Database.tuple_id, Lp.Model.var) Hashtbl.t;
  mutable tuple_cols : (Lp.Model.var * Database.tuple_id) list;
}

type writer = {
  col : name:string -> integer:bool -> obj:int -> Lp.Model.var;
  row : Lp.Model.sense -> int -> Lp.Model.linexpr -> unit;
  integral : bool * bool;
  weight : Database.tuple_info -> int;
  db : Database.t;
  cols : columns;
}

let integrality = function Ilp -> (true, true) | Milp -> (false, true) | Lp -> (false, false)

(* The binary bound is declared honestly (Model rejects unbounded integer
   variables).  It costs the solver no row: [Lp.Simplex] keeps finite upper
   bounds natively as per-column bounds. *)
let model_writer integral weight db =
  let model = Lp.Model.create () in
  ( model,
    {
      col = (fun ~name ~integer ~obj -> Lp.Model.add_var ~name ~integer ~upper:1 ~obj model);
      row = (fun sense rhs expr -> Lp.Model.add_constr model expr sense rhs);
      integral;
      weight;
      db;
      cols = { col_of_tuple = Hashtbl.create 64; tuple_cols = [] };
    } )

let endogenous q db set = List.filter (fun tid -> not (Problem.tuple_exo q db tid)) set

let tuple_col p tid =
  match Hashtbl.find_opt p.cols.col_of_tuple tid with
  | Some x -> x
  | None ->
    let info = Database.tuple p.db tid in
    let name = Printf.sprintf "X_%s_%d" info.Database.rel tid in
    let x = p.col ~name ~integer:(fst p.integral) ~obj:(p.weight info) in
    Hashtbl.add p.cols.col_of_tuple tid x;
    p.cols.tuple_cols <- (x, tid) :: p.cols.tuple_cols;
    x

let tuple_terms p endo = List.map (fun tid -> (tuple_col p tid, 1)) endo

let witness_col p i = p.col ~name:(Printf.sprintf "W_%d" i) ~integer:(snd p.integral) ~obj:0

let tracking p w terms = List.iter (fun (x, _) -> p.row Lp.Model.Geq 0 [ (x, -1); (w, 1) ]) terms

(* [sum X >= W]; without [w], W is the constant 1: the covering row. *)
let destruction p ?w terms =
  match w with
  | None -> p.row Lp.Model.Geq 1 terms
  | Some w -> p.row Lp.Model.Geq 0 (terms @ [ (w, -1) ])

let witness_block p w terms =
  tracking p w terms;
  destruction p ~w terms

(* Preserve: an indicator tracking the members of [set] that already have a
   column (the candidates for deletion). *)
let preserve p i set =
  let w = witness_col p i in
  tracking p w
    (List.filter_map
       (fun tid -> Option.map (fun x -> (x, 1)) (Hashtbl.find_opt p.cols.col_of_tuple tid))
       set);
  w

(* [sum W - Z <= |W| - 1]: some witness of [ws] survives unless the slack
   [z] is raised; without [z], unconditionally. *)
let counterfactual_row p ?z ws =
  let terms = List.map (fun w -> (w, 1)) ws in
  p.row Lp.Model.Leq
    (List.length ws - 1)
    (match z with Some z -> terms @ [ (z, -1) ] | None -> terms)

let counterfactual p ws =
  let z = p.col ~name:"Z" ~integer:false ~obj:0 in
  counterfactual_row p ~z ws;
  z

(* --- Role assignments ------------------------------------------------------ *)

let encoded model p witness_vars =
  let tuple_of_var = List.rev p.cols.tuple_cols in
  Encoded { model; tuple_of_var; var_of_tuple = p.cols.col_of_tuple; witness_vars }

let res_of_witnesses relax semantics q db witnesses =
  if witnesses = [] then Trivial 0
  else
    let sets = List.map (endogenous q db) (Eval.unique_tuple_sets witnesses) in
    if List.mem [] sets then Impossible
    else begin
      let model, p = model_writer (integrality relax) (Problem.weight semantics) db in
      List.iter (fun endo -> destruction p (tuple_terms p endo)) sets;
      encoded model p []
    end

let res relax semantics q db = res_of_witnesses relax semantics q db (Eval.witnesses q db)

let rsp_of_witnesses relax semantics q db witnesses t =
  let with_t, without_t = List.partition (fun w -> List.mem t (Eval.tuple_set w)) witnesses in
  if witnesses = [] then Trivial 0
  else if with_t = [] then Impossible
  else
    (* Delete every witness avoiding t: only their tuples are candidates
       for deletion, so t, which must survive to be counterfactual, never
       is.  Preserve one of the witnesses containing t. *)
    let sets = List.map (endogenous q db) (Eval.unique_tuple_sets without_t) in
    if List.mem [] sets then Impossible
    else begin
      let model, p = model_writer (integrality relax) (Problem.weight semantics) db in
      List.iter (fun endo -> destruction p (tuple_terms p endo)) sets;
      let ws = List.mapi (preserve p) (Eval.unique_tuple_sets with_t) in
      counterfactual_row p ws;
      encoded model p ws
    end

let rsp relax semantics q db t = rsp_of_witnesses relax semantics q db (Eval.witnesses q db) t

let contingency enc x =
  List.filter_map (fun (v, tid) -> if x.(v) > 0.5 then Some tid else None) enc.tuple_of_var

type shared = {
  sfz : Lp.Frozen.t;
  stuple_of_var : (Lp.Model.var * Database.tuple_id) list;
  svar_of_tuple : (Database.tuple_id, Lp.Model.var) Hashtbl.t;
  switnesses : (Lp.Model.var * Database.tuple_id list) list;
  sz : Lp.Model.var;
}

type shared_outcome = Shared of shared | Shared_trivial | Shared_impossible

let shared_of_sets semantics q db sets =
  if sets = [] then Shared_trivial
  else begin
    let endo_of = List.map (endogenous q db) sets in
    if List.mem [] endo_of then Shared_impossible
    else begin
      let model, p = model_writer (integrality Ilp) (Problem.weight semantics) db in
      (* Indicate every witness: its indicator, then its tuples' columns. *)
      let ws =
        List.mapi
          (fun i endo ->
            let w = witness_col p i in
            witness_block p w (tuple_terms p endo);
            w)
          endo_of
      in
      let z = counterfactual p ws in
      Shared
        {
          sfz = Lp.Frozen.of_model model;
          stuple_of_var = List.rev p.cols.tuple_cols;
          svar_of_tuple = p.cols.col_of_tuple;
          switnesses = List.combine ws sets;
          sz = z;
        }
    end
  end

let view_side_effects q db ~delete ~lost =
  let sets = List.map (endogenous q db) delete in
  if List.mem [] sets then Impossible
  else begin
    let model, p = model_writer (true, false) (fun _ -> 1) db in
    List.iter (fun endo -> destruction p (tuple_terms p endo)) sets;
    (* Lexicographic: one lost row outweighs deleting every candidate. *)
    let row_cost = Hashtbl.length p.cols.col_of_tuple + 1 in
    let next_w = ref 0 in
    List.iter
      (fun (row, group) ->
        (* Raising Y_row is what lets every witness of the row be
           destroyed. *)
        let y =
          p.col
            ~name:("Y_" ^ String.concat "_" (List.map string_of_int row))
            ~integer:true ~obj:row_cost
        in
        let ws = List.map (fun set -> incr next_w; preserve p !next_w set) group in
        counterfactual_row p ~z:y ws)
      lost;
    encoded model p []
  end
