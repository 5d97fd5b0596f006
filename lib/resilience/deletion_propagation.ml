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

(* The view row of a witness: its head variables' values. *)
let row_of q db head =
  let valuation = Eval.valuation q db in
  fun w ->
    let vals = valuation w in
    Array.of_list (List.map (fun v -> List.assoc v vals) head)

let output_rows q ~head db =
  check_head q head;
  let seen = Hashtbl.create 64 in
  let row_of = row_of q db head in
  Eval.witnesses q db
  |> List.filter_map (fun w ->
         let row = row_of w in
         let key = Array.to_list row in
         if Hashtbl.mem seen key then None
         else begin
           Hashtbl.add seen key ();
           Some row
         end)

(* Which view rows other than [output] disappear once [gamma] is deleted? *)
let lost_rows q ~head db ~output gamma =
  let db' = Database.restrict db (fun info -> not (List.mem info.Database.id gamma)) in
  let after = output_rows q ~head db' in
  List.filter (fun row -> row <> output && not (List.mem row after)) (output_rows q ~head db)

let source_side_effects ?exact semantics q ~head db ~output =
  let qb = specialize q ~head ~output in
  match Solve.resilience ?exact semantics qb db with
  | Solve.Solved a ->
    let lost = lost_rows q ~head db ~output a.Solve.contingency in
    Solve.Solved { deleted_inputs = a.Solve.contingency; lost_outputs = lost }
  | Solve.Query_false -> Solve.Query_false
  | Solve.No_contingency -> Solve.No_contingency
  | Solve.Budget_exhausted v -> Solve.Budget_exhausted v

(* Minimise lost view rows: the target row's witnesses are deleted, and
   every other view row is a lost-row group over its distinct witness
   tuple sets. *)
let view_side_effects ?(exact = false) ?node_limit ?time_limit q ~head db ~output =
  check_head q head;
  let row_of = row_of q db head in
  let target_ws, other_ws =
    List.partition (fun w -> row_of w = output) (Eval.witnesses q db)
  in
  if target_ws = [] then Solve.Query_false
  else begin
    let groups = Hashtbl.create 64 in
    List.iter
      (fun w ->
        let key = Array.to_list (row_of w) in
        let cur = try Hashtbl.find groups key with Not_found -> [] in
        Hashtbl.replace groups key (Eval.tuple_set w :: cur))
      other_ws;
    let lost =
      Hashtbl.fold (fun key sets acc -> (key, List.sort_uniq compare sets) :: acc) groups []
    in
    match Encode.view_side_effects q db ~delete:(Eval.unique_tuple_sets target_ws) ~lost with
    | Encode.Trivial _ -> Solve.Query_false
    | Encode.Impossible -> Solve.No_contingency
    | Encode.Encoded enc -> (
      match
        Session.cold_solve ?node_limit ?time_limit ~op:"view_side_effects" ~exact enc
          ~answer:(fun _ x _ ->
            let gamma = Encode.contingency enc x in
            let lost_outputs = lost_rows q ~head db ~output gamma in
            { deleted_inputs = List.sort compare gamma; lost_outputs })
      with
      | Solve.Budget_exhausted incumbent ->
        (* A lost row weighs one more than every tuple column together. *)
        let row_cost = List.length enc.Encode.tuple_of_var + 1 in
        Solve.Budget_exhausted (Option.map (fun v -> v / row_cost) incumbent)
      | outcome -> outcome)
  end
