open Relalg

type key_mode = Spanning | Adjacent

type t = {
  graph : Maxflow.t;
  source : int;
  sink : int;
  edge_tuple : (Maxflow.edge_id, Database.tuple_id) Hashtbl.t;
  tuple_edges : (Database.tuple_id, Maxflow.edge_id list) Hashtbl.t;
  witness_tuples : Database.tuple_id list array;  (* aligned with input witnesses *)
  weight_of : Database.tuple_id -> int;
}

let build q ~order ~weight ~db ~witnesses mode =
  let m = Array.length order in
  let keys =
    (* Cut signatures, one per cut 0..m-2. *)
    Array.init (max 0 (m - 1)) (fun k ->
        match mode with
        | Spanning -> Linearize.spanning_vars q order k
        | Adjacent -> Linearize.adjacent_vars q order k)
  in
  let graph = Maxflow.create () in
  let source = Maxflow.add_node graph in
  let sink = Maxflow.add_node graph in
  let node_tbl : (int * int list, int) Hashtbl.t = Hashtbl.create 256 in
  let node_at cut key_vals =
    match Hashtbl.find_opt node_tbl (cut, key_vals) with
    | Some n -> n
    | None ->
      let n = Maxflow.add_node graph in
      Hashtbl.add node_tbl (cut, key_vals) n;
      n
  in
  let edge_tbl : (int * Database.tuple_id * int list * int list, Maxflow.edge_id) Hashtbl.t =
    Hashtbl.create 256
  in
  let edge_tuple = Hashtbl.create 256 in
  let tuple_edges = Hashtbl.create 256 in
  let nw = List.length witnesses in
  let witness_tuples = Array.make nw [] in
  let weight_of tid = weight (Database.tuple db tid) in
  let valuation = Eval.valuation q db in
  List.iteri
    (fun wi w ->
      let vals = valuation w in
      let value_of v = List.assoc v vals in
      let key cut = List.map value_of keys.(cut) in
      for pos = 0 to m - 1 do
        let tid = w.Eval.tuples.(order.(pos)) in
        let left_key = if pos = 0 then [] else key (pos - 1) in
        let right_key = if pos = m - 1 then [] else key pos in
        let ident = (pos, tid, left_key, right_key) in
        if not (Hashtbl.mem edge_tbl ident) then begin
          let src = if pos = 0 then source else node_at (pos - 1) left_key in
          let dst = if pos = m - 1 then sink else node_at pos right_key in
          let e = Maxflow.add_edge graph ~src ~dst ~cap:(weight_of tid) in
          Hashtbl.add edge_tbl ident e;
          Hashtbl.add edge_tuple e tid;
          let cur = try Hashtbl.find tuple_edges tid with Not_found -> [] in
          Hashtbl.replace tuple_edges tid (e :: cur)
        end
      done;
      witness_tuples.(wi) <- Eval.tuple_set w)
    witnesses;
  { graph; source; sink; edge_tuple; tuple_edges; witness_tuples; weight_of }

(* Sum the weights of the distinct tuples behind a cut's edges. *)
let tuples_of_cut t cut_edges =
  let tids =
    List.map (fun e -> Hashtbl.find t.edge_tuple e) cut_edges |> List.sort_uniq compare
  in
  let value =
    List.fold_left
      (fun acc tid ->
        let w = t.weight_of tid in
        if Maxflow.is_infinite acc || Maxflow.is_infinite w then Maxflow.infinity else acc + w)
      0 tids
  in
  (value, tids)

let resilience_cut t =
  let value, cut = Maxflow.min_cut t.graph ~source:t.source ~sink:t.sink in
  if value = 0 then (0, [])
  else if Maxflow.is_infinite value then (Maxflow.infinity, [])
  else tuples_of_cut t cut

let responsibility_cut t ~tuple =
  let t_edges = try Hashtbl.find t.tuple_edges tuple with Not_found -> [] in
  let containing =
    Array.to_list t.witness_tuples
    |> List.mapi (fun i ts -> (i, ts))
    |> List.filter (fun (_, ts) -> List.mem tuple ts)
  in
  if containing = [] then None
  else begin
    (* Virtually delete the responsibility tuple: its paths need no cutting. *)
    let saved = List.map (fun e -> (e, Maxflow.cap t.graph e)) t_edges in
    List.iter (fun e -> Maxflow.set_cap t.graph e 0) t_edges;
    let best = ref None in
    List.iter
      (fun (_wi, wi_tuples) ->
        (* Preserve witness wi: every edge of every one of its tuples becomes
           uncuttable (a dissociated copy elsewhere still deletes the same
           tuple, so copies must be frozen too). *)
        let frozen =
          List.concat_map
            (fun tid ->
              if tid = tuple then []
              else
                try Hashtbl.find t.tuple_edges tid with Not_found -> [])
            wi_tuples
          |> List.sort_uniq compare
          |> List.map (fun e -> (e, Maxflow.cap t.graph e))
        in
        List.iter (fun (e, _) -> Maxflow.set_cap t.graph e Maxflow.infinity) frozen;
        let value, cut = Maxflow.min_cut t.graph ~source:t.source ~sink:t.sink in
        if not (Maxflow.is_infinite value) then begin
          let v, tids = if value = 0 then (0, []) else tuples_of_cut t cut in
          match !best with
          | Some (bv, _) when bv <= v -> ()
          | _ -> best := Some (v, tids)
        end;
        List.iter (fun (e, c) -> Maxflow.set_cap t.graph e c) frozen)
      containing;
    List.iter (fun (e, c) -> Maxflow.set_cap t.graph e c) saved;
    !best
  end
