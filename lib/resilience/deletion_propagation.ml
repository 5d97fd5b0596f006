open Relalg

type answer = { deleted_inputs : Database.tuple_id list; lost_outputs : int array list }

let check_head q head =
  let vars = Cq.vars q in
  List.iter
    (fun v ->
      if not (List.mem v vars) then
        invalid_arg (Printf.sprintf "Deletion_propagation: head variable %s not in query" v))
    head

let specialize q ~head ~output =
  if List.length head <> Array.length output then
    invalid_arg "Deletion_propagation.specialize: head/output arity mismatch";
  check_head q head;
  let binding v =
    let rec go i = function
      | [] -> None
      | h :: rest -> if h = v then Some output.(i) else go (i + 1) rest
    in
    go 0 head
  in
  let atoms =
    Array.to_list q.Cq.atoms
    |> List.map (fun (a : Cq.atom) ->
           {
             a with
             Cq.terms =
               Array.map
                 (function
                   | Cq.Var v as t -> (
                     match binding v with Some c -> Cq.Const c | None -> t)
                   | Cq.Const _ as t -> t)
                 a.Cq.terms;
           })
  in
  Cq.make ~name:(q.Cq.name ^ "_at_row") atoms

let row_of w head = Array.of_list (List.map (fun v -> List.assoc v w.Eval.valuation) head)

let output_rows q ~head db =
  check_head q head;
  let seen = Hashtbl.create 64 in
  Eval.witnesses q db
  |> List.filter_map (fun w ->
         let row = row_of w head in
         let key = Array.to_list row in
         if Hashtbl.mem seen key then None
         else begin
           Hashtbl.add seen key ();
           Some row
         end)

(* Which view rows disappear once [gamma] is deleted? *)
let lost_rows q ~head db gamma =
  let db' = Database.restrict db (fun info -> not (List.mem info.Database.id gamma)) in
  let before = output_rows q ~head db in
  let after = output_rows q ~head db' in
  List.filter (fun row -> not (List.exists (fun r -> r = row) after)) before

let source_side_effects ?exact semantics q ~head db ~output =
  let qb = specialize q ~head ~output in
  match Solve.resilience ?exact semantics qb db with
  | Solve.Solved a ->
    let lost =
      lost_rows q ~head db a.Solve.contingency
      |> List.filter (fun row -> row <> output)
    in
    Solve.Solved { deleted_inputs = a.Solve.contingency; lost_outputs = lost }
  | Solve.Query_false -> Solve.Query_false
  | Solve.No_contingency -> Solve.No_contingency
  | Solve.Budget_exhausted v -> Solve.Budget_exhausted v

(* Minimise lost view rows: binary Y[o] per non-target output row o, wired
   so Y[o] = 1 whenever all of o's witnesses are destroyed; the target row's
   witnesses carry hard covering constraints.  Tuple variables are binary
   too — they carry no objective weight, so a fractional relaxation could
   destroy witnesses "for free" and under-report the lost rows. *)
let view_side_effects ?(exact = false) ?node_limit ?time_limit _semantics q ~head db ~output =
  check_head q head;
  let witnesses = Eval.witnesses q db in
  if witnesses = [] then Solve.Query_false
  else begin
    let target_ws, other_ws =
      List.partition (fun w -> row_of w head = output) witnesses
    in
    if target_ws = [] then Solve.Query_false
    else begin
      let model = Lp.Model.create () in
      let var_of_tuple = Hashtbl.create 64 in
      let tuple_var tid =
        match Hashtbl.find_opt var_of_tuple tid with
        | Some v -> v
        | None ->
          let v =
            Lp.Model.add_var ~name:(Printf.sprintf "X_%d" tid) ~integer:true ~upper:1 model
          in
          Hashtbl.add var_of_tuple tid v;
          v
      in
      let impossible = ref false in
      (* Hard covering: every witness of the target row must be destroyed. *)
      List.iter
        (fun ts ->
          let endo = List.filter (fun tid -> not (Problem.tuple_exo q db tid)) ts in
          if endo = [] then impossible := true
          else Lp.Model.add_constr model (List.map (fun t -> (tuple_var t, 1)) endo) Lp.Model.Geq 1)
        (Eval.unique_tuple_sets target_ws);
      if !impossible then Solve.No_contingency
      else begin
        (* Group the remaining witnesses by view row. *)
        let groups = Hashtbl.create 64 in
        List.iter
          (fun w ->
            let key = Array.to_list (row_of w head) in
            let cur = try Hashtbl.find groups key with Not_found -> [] in
            Hashtbl.replace groups key (Eval.tuple_set w :: cur))
          other_ws;
        let rows = Hashtbl.fold (fun key sets acc -> (key, sets) :: acc) groups [] in
        List.iter
          (fun (key, sets) ->
            let y =
              Lp.Model.add_var
                ~name:("Y_" ^ String.concat "_" (List.map string_of_int key))
                ~integer:true ~upper:1 ~obj:1 model
            in
            (* per-witness destruction indicators: W >= X[t]; the row is
               lost when all its witnesses are: Y >= sum W - (k-1). *)
            let sets = List.sort_uniq compare sets in
            let ws =
              List.map
                (fun ts ->
                  let w = Lp.Model.add_var ~upper:1 model in
                  List.iter
                    (fun tid ->
                      if Hashtbl.mem var_of_tuple tid then
                        (* only tuples that may actually be deleted matter *)
                        Lp.Model.add_constr model
                          [ (w, 1); (Hashtbl.find var_of_tuple tid, -1) ]
                          Lp.Model.Geq 0)
                    ts;
                  w)
                sets
            in
            let k = List.length ws in
            Lp.Model.add_constr model
              ((y, 1) :: List.map (fun w -> (w, -1)) ws)
              Lp.Model.Geq
              (1 - k))
          rows;
        let tuple_of_var = Hashtbl.fold (fun tid v acc -> (v, tid) :: acc) var_of_tuple [] in
        let enc = { Encode.model; tuple_of_var; var_of_tuple; witness_vars = [] } in
        Session.cold_solve ?node_limit ?time_limit ~op:"view_side_effects" ~exact enc
          ~answer:(fun _ gamma _ ->
            let lost = lost_rows q ~head db gamma |> List.filter (fun row -> row <> output) in
            { deleted_inputs = List.sort compare gamma; lost_outputs = lost })
      end
    end
  end
