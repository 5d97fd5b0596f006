type witness = { tuples : Database.tuple_id array }

(* Greedy join order: repeatedly pick the atom with the most already-bound
   variables, breaking ties toward smaller relations.  Returns the atom
   indices in execution order. *)
let join_order q db =
  let n = Array.length q.Cq.atoms in
  let rel_size =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun rel -> Hashtbl.replace tbl rel (List.length (Database.tuples_of db rel)))
      (Cq.rel_names q);
    fun rel -> try Hashtbl.find tbl rel with Not_found -> 0
  in
  let chosen = Array.make n false in
  let bound = Hashtbl.create 16 in
  let order = ref [] in
  for _ = 1 to n do
    let best = ref (-1) in
    let best_key = ref (-1, max_int) in
    for i = 0 to n - 1 do
      if not chosen.(i) then begin
        let a = q.Cq.atoms.(i) in
        let nbound =
          List.length (List.filter (fun v -> Hashtbl.mem bound v) (Cq.vars_of_atom a))
        in
        let better =
          let bn, bs = !best_key in
          nbound > bn || (nbound = bn && rel_size a.Cq.rel < bs)
        in
        if !best < 0 || better then begin
          best := i;
          best_key := (nbound, rel_size a.Cq.rel)
        end
      end
    done;
    chosen.(!best) <- true;
    List.iter (fun v -> Hashtbl.replace bound v ()) (Cq.vars_of_atom q.Cq.atoms.(!best));
    order := !best :: !order
  done;
  Array.of_list (List.rev !order)

(* For each execution position, precompute which term positions are bound
   (constants, or variables bound by earlier atoms) and build a hash index
   of the relation on those columns. *)
type plan_step = {
  atom_idx : int;
  terms : Cq.term array;
  bound_cols : int list;  (* positions used as the index key *)
  index : (int list, Database.tuple_info list) Hashtbl.t;
}

let build_plan q db =
  let bound_vars = Hashtbl.create 16 in
  Array.to_list (join_order q db)
  |> List.map (fun atom_idx ->
         let a = q.Cq.atoms.(atom_idx) in
         (* Only constants and variables bound by earlier atoms can key the
            index; a variable repeated within this same atom is checked by
            [bind] instead (its value is unknown until the tuple is
            picked). *)
         let bound_cols =
           List.init (Array.length a.Cq.terms) Fun.id
           |> List.filter (fun pos ->
                  match a.Cq.terms.(pos) with
                  | Cq.Const _ -> true
                  | Cq.Var v -> Hashtbl.mem bound_vars v)
         in
         let index = Hashtbl.create 64 in
         List.iter
           (fun info ->
             let key = List.map (fun pos -> info.Database.args.(pos)) bound_cols in
             let cur = try Hashtbl.find index key with Not_found -> [] in
             Hashtbl.replace index key (info :: cur))
           (Database.tuples_of db a.Cq.rel);
         List.iter (fun v -> Hashtbl.replace bound_vars v ()) (Cq.vars_of_atom a);
         { atom_idx; terms = a.Cq.terms; bound_cols; index })

(* A step with no key columns: its candidates are [cands], in that order,
   and [bind] checks every term. *)
let scan_step q atom_idx cands =
  let index = Hashtbl.create 1 in
  Hashtbl.add index [] cands;
  { atom_idx; terms = q.Cq.atoms.(atom_idx).Cq.terms; bound_cols = []; index }

(* Bind a step's terms against a tuple; [false] on a clash.  The variables
   it binds go on [newly], for the caller to undo on backtrack. *)
let bind valuation step (info : Database.tuple_info) newly =
  let ok = ref true in
  Array.iteri
    (fun pos term ->
      if !ok then
        match term with
        | Cq.Const c -> ok := info.Database.args.(pos) = c
        | Cq.Var v -> (
          match Hashtbl.find_opt valuation v with
          | Some value -> ok := info.Database.args.(pos) = value
          | None ->
            Hashtbl.add valuation v info.Database.args.(pos);
            newly := v :: !newly))
    step.terms;
  !ok

(* The backtracking join: runs [plan] and calls [emit] on the tuple row
   (aligned with the query's atoms) of every match.  The row is reused
   between calls: copy it to keep it. *)
let run q plan emit =
  let valuation = Hashtbl.create 16 in
  let chosen = Array.make (Array.length q.Cq.atoms) (-1) in
  let rec go = function
    | [] -> emit chosen
    | step :: rest ->
      let key =
        List.map
          (fun pos ->
            match step.terms.(pos) with
            | Cq.Const c -> c
            | Cq.Var v -> Hashtbl.find valuation v)
          step.bound_cols
      in
      List.iter
        (fun info ->
          let newly = ref [] in
          if bind valuation step info newly then begin
            chosen.(step.atom_idx) <- info.Database.id;
            go rest
          end;
          List.iter (Hashtbl.remove valuation) !newly)
        (try Hashtbl.find step.index key with Not_found -> [])
  in
  go plan

(* The witness join feeds every encoding, so its time and output size are
   first-class telemetry (dropped unless a trace sink is installed). *)
let c_joins = Obs.Counter.create "eval.joins"
let c_witnesses = Obs.Counter.create "eval.witness_count"

let witnesses q db =
  let span0 = Obs.Trace.begin_ () in
  let out = ref [] in
  run q (build_plan q db) (fun row -> out := { tuples = Array.copy row } :: !out);
  let ws = List.rev !out in
  if Obs.Sink.active () then begin
    Obs.Counter.incr c_joins;
    Obs.Counter.add c_witnesses (List.length ws)
  end;
  Obs.Trace.end_ span0 "eval.witnesses";
  ws

let holds q db =
  let exception Found in
  match run q (build_plan q db) (fun _ -> raise Found) with
  | () -> false
  | exception Found -> true

(* Witnesses created by inserting tuple [id], without re-running the full
   join: union over "pivot" atoms — for every atom unifiable with the new
   tuple, a plan that pins that atom to it, then scans the other atoms'
   relations in query order.  A self-join witness using the tuple at
   several atoms is found once per usable pivot; deduplicating on the
   tuple row collapses those. *)
let delta_insert q db id =
  match Database.tuple db id with
  | exception Not_found -> []
  | info ->
    let span0 = Obs.Trace.begin_ () in
    let scans =
      lazy
        (List.init (Array.length q.Cq.atoms) (fun i ->
             scan_step q i (Database.tuples_of db q.Cq.atoms.(i).Cq.rel)))
    in
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    Array.iteri
      (fun pivot (a : Cq.atom) ->
        if a.Cq.rel = info.Database.rel && Array.length a.Cq.terms = Array.length info.Database.args
        then
          let rest = List.filter (fun s -> s.atom_idx <> pivot) (Lazy.force scans) in
          run q
            (scan_step q pivot [ info ] :: rest)
            (fun row ->
              if not (Hashtbl.mem seen row) then begin
                let row = Array.copy row in
                Hashtbl.add seen row ();
                out := { tuples = row } :: !out
              end))
      q.Cq.atoms;
    Obs.Trace.end_ span0 "eval.delta_insert";
    List.rev !out

(* Each variable is read at its first occurrence: the atom's tuple in the
   row and the position in that tuple. *)
let valuation q db =
  let slot v =
    let i = Option.get (Array.find_index (fun a -> Array.mem (Cq.Var v) a.Cq.terms) q.Cq.atoms) in
    (v, i, Option.get (Array.find_index (( = ) (Cq.Var v)) q.Cq.atoms.(i).Cq.terms))
  in
  let slots = List.map slot (Cq.vars q) in
  fun w ->
    List.map (fun (v, i, pos) -> (v, (Database.tuple db w.tuples.(i)).Database.args.(pos))) slots

let tuple_set w = Array.to_list w.tuples |> List.sort_uniq compare

let unique_tuple_sets ws =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun w ->
      let ts = tuple_set w in
      if Hashtbl.mem seen ts then None
      else begin
        Hashtbl.add seen ts ();
        Some ts
      end)
    ws

let count q db = List.length (witnesses q db)
