open Relalg

(* Fast-path appends vs full re-encodes, for `resil serve --stats` and the
   bench harness (dropped unless a trace sink is installed). *)
let c_appends = Obs.Counter.create "incremental.appends"
let c_rebuilds = Obs.Counter.create "incremental.rebuilds"

(* The resilience fast path: the plain covering program ILP[RES*] frozen as
   encoded (like every solve path), so variable indices are stable and a
   tuple insert extends the program by appended columns/rows.  The warm
   branch-and-bound session absorbs the appends without dropping its basis
   (see Lp.Frozen.Delta). *)
type res_core = {
  rengine : Lp.Solvers.engine;
  mutable rdelta : Lp.Frozen.Delta.t;  (* grows monotonically by appends *)
  rvar_of_tuple : (Database.tuple_id, int) Hashtbl.t;  (* extended numbering *)
  mutable rtuple_of_var : (int * Database.tuple_id) list;  (* reversed *)
  mutable rnvars : int;  (* base + appended *)
  rsets : (Database.tuple_id list, unit) Hashtbl.t;  (* full witness tuple sets *)
}

type res_state =
  | Rdirty  (* rebuild from the maintained witnesses on next question *)
  | Rempty  (* no witnesses: the query is false *)
  | Rimpossible  (* some witness is fully exogenous — stable under inserts *)
  | Ractive of res_core

type t = {
  idb : Database.t;  (* owned; mutated only through [insert]/[delete] *)
  isem : Problem.semantics;
  iq : Cq.t;
  iexact : bool;
  mutable iwitnesses : Eval.witness list;
  mutable rstate : res_state;
  mutable isession : Session.t option;
      (* Shared-program session for responsibility/ranking, rebuilt lazily
         from the maintained witnesses after any mutation. *)
}

let create ?(exact = false) semantics q db =
  let db = Database.copy db in
  {
    idb = db;
    isem = semantics;
    iq = q;
    iexact = exact;
    iwitnesses = Eval.witnesses q db;
    rstate = Rdirty;
    isession = None;
  }

let db t = t.idb
let witnesses t = t.iwitnesses
let exact t = t.iexact
let semantics t = t.isem
let query t = t.iq

(* --- Resilience core ------------------------------------------------------ *)

let build_core t =
  Obs.Counter.incr c_rebuilds;
  match Encode.res_of_witnesses Encode.Ilp t.isem t.iq t.idb t.iwitnesses with
  | Encode.Trivial _ -> Rempty
  | Encode.Impossible -> Rimpossible
  | Encode.Encoded enc ->
    let fz = Lp.Frozen.of_model enc.Encode.model in
    let rengine = Lp.Solvers.engine ~exact:t.iexact fz in
    let rsets = Hashtbl.create 64 in
    List.iter (fun set -> Hashtbl.replace rsets set ()) (Eval.unique_tuple_sets t.iwitnesses);
    let rvar_of_tuple = Hashtbl.copy enc.Encode.var_of_tuple in
    {
      rengine;
      rdelta = Lp.Frozen.Delta.empty;
      rvar_of_tuple;
      rtuple_of_var = List.rev enc.Encode.tuple_of_var;
      rnvars = Lp.Frozen.num_vars fz;
      rsets;
    }
    |> fun core -> Ractive core

let core_of t =
  (match t.rstate with
  | Rdirty -> t.rstate <- build_core t
  | Rempty when t.iwitnesses <> [] ->
    (* Inserts created the first witnesses since the empty build. *)
    t.rstate <- build_core t
  | Rempty | Rimpossible | Ractive _ -> ());
  t.rstate

(* Absorb the witnesses a fresh insert created: one appended covering row
   per genuinely new tuple set, with appended columns for its endogenous
   tuples that have no variable yet.  Flips the state to [Rimpossible] when
   a new witness is fully exogenous (no insert can undo that: the witness
   itself survives all further inserts). *)
let append_witnesses t core fresh =
  let impossible = ref false in
  List.iter
    (fun w ->
      if not !impossible then begin
        let set = Eval.tuple_set w in
        if not (Hashtbl.mem core.rsets set) then begin
          Hashtbl.replace core.rsets set ();
          let endo = List.filter (fun tid -> not (Problem.tuple_exo t.iq t.idb tid)) set in
          if endo = [] then impossible := true
          else begin
            let vars =
              List.map
                (fun tid ->
                  match Hashtbl.find_opt core.rvar_of_tuple tid with
                  | Some v -> v
                  | None ->
                    let info = Database.tuple t.idb tid in
                    let v = core.rnvars in
                    core.rnvars <- v + 1;
                    core.rdelta <-
                      Lp.Frozen.Delta.append_col ~integer:true ~upper:1
                        ~name:(Printf.sprintf "X_%s_%d" info.Database.rel tid)
                        ~obj:(Problem.weight t.isem info) core.rdelta;
                    Hashtbl.add core.rvar_of_tuple tid v;
                    core.rtuple_of_var <- (v, tid) :: core.rtuple_of_var;
                    v)
                endo
            in
            let expr = List.sort compare vars |> List.map (fun v -> (v, 1)) in
            core.rdelta <- Lp.Frozen.Delta.append_row Lp.Model.Geq 1 expr core.rdelta;
            Obs.Counter.incr c_appends
          end
        end
      end)
    fresh;
  if !impossible then t.rstate <- Rimpossible

(* --- Mutations ------------------------------------------------------------ *)

let invalidate_session t = t.isession <- None

let insert ?mult ?exo t rel args =
  invalidate_session t;
  let existing = Database.find t.idb rel args in
  let id = Database.add ?mult ?exo t.idb rel args in
  (match existing with
  | Some _ ->
    (* Multiplicity bump / exogeneity OR: the witness list is unchanged but
       objective weights (and possibly endogeneity) moved, which appends
       cannot express.  [Rimpossible] survives: [add] only grows mult and
       ORs exo, neither revives a fully-exogenous witness. *)
    (match t.rstate with Rimpossible -> () | _ -> t.rstate <- Rdirty)
  | None ->
    let fresh = Eval.delta_insert t.iq t.idb id in
    t.iwitnesses <- t.iwitnesses @ fresh;
    (match t.rstate with
    | Ractive core -> append_witnesses t core fresh
    | Rempty -> if fresh <> [] then t.rstate <- Rdirty
    | Rimpossible | Rdirty -> ()));
  id

let delete t id =
  invalidate_session t;
  Database.remove t.idb id;
  t.iwitnesses <-
    List.filter (fun w -> not (Array.exists (fun x -> x = id) w.Eval.tuples)) t.iwitnesses;
  (* A delete can drop rows, revive an impossible instance, or empty the
     witness set — none of which appends express; rebuild on demand. *)
  t.rstate <- Rdirty

(* --- Questions ------------------------------------------------------------ *)

let round_value x = int_of_float (Float.round x)

let stats_of ~solve_time ~root_lp ~root_integral ~nodes ~pivots ~refactors =
  {
    Session.nodes;
    root_lp;
    root_integral;
    certified = false;
    solve_time;
    prep_time = 0.;
    pivots;
    refactors;
  }

let read_contingency core sol =
  List.rev core.rtuple_of_var
  |> List.filter_map (fun (v, tid) -> if sol.(v) > 0.5 then Some tid else None)

let resilience ?node_limit ?time_limit t =
  match core_of t with
  | Rempty -> Session.Query_false
  | Rimpossible -> Session.No_contingency
  | Rdirty -> assert false (* core_of resolved it *)
  | Ractive core -> (
    let t0 = Lp.Clock.now () in
    let finish nodes root_lp root_integral pivots refactors obj sol =
      Session.Solved
        {
          Session.res_value = round_value obj;
          contingency = read_contingency core sol;
          res_stats =
            stats_of ~solve_time:(Lp.Clock.elapsed t0) ~root_lp ~root_integral ~nodes ~pivots
              ~refactors;
        }
    in
    match core.rengine with
    | Lp.Solvers.Engine ((module B), s) -> (
      let r = B.solve_session ?node_limit ?time_limit ~delta:core.rdelta s in
      let root = match r.B.root_objective with Some o -> B.to_float o | None -> nan in
      match r.B.status with
      | B.Optimal ->
        finish r.B.nodes root r.B.root_integral r.B.pivots r.B.refactors
          (B.to_float (Option.get r.B.objective))
          (B.to_floats (Option.get r.B.solution))
      | B.Infeasible | B.Unbounded -> Session.No_contingency
      | B.Feasible ->
        Session.Budget_exhausted (Option.map (fun o -> round_value (B.to_float o)) r.B.objective)
      | B.Limit_no_solution -> Session.Budget_exhausted None))

let session t =
  match t.isession with
  | Some s -> s
  | None ->
    let s =
      Session.create ~exact:t.iexact ~witnesses:t.iwitnesses t.isem t.iq t.idb
    in
    t.isession <- Some s;
    s

let responsibility ?node_limit ?time_limit t tid =
  Session.responsibility ?node_limit ?time_limit (session t) tid

let ranking_par ?node_limit ?time_limit ?jobs t =
  Session.ranking_par ?node_limit ?time_limit ?jobs (session t)
