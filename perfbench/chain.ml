(* Cold RES/RSP solves.  Untraced, an op is one [Solve.resilience] or
   [Solve.responsibility] call, as the CLI makes it.  Traced, the same op is
   reproduced as the chain of public calls [Solve.run_bb] makes, one span
   per layer:

     Eval.witnesses -> Encode.*_of_witnesses -> Frozen.of_model
     -> Presolve.presolve -> Struct.analyze
     -> Float_bb.create_session + relax -> solve_session (fractional root)

   and its answer must equal the untraced one (see [Harness.answer]). *)

open Relalg
open Resilience

(* Far above what any generated instance needs; a stop here is a failure,
   never a timing-dependent answer.  No op runs under a time limit. *)
let node_limit = 1_000_000

(* The id of a tuple given as a data line, as the CLI's --tuple resolves it. *)
let find_tuple db line =
  let scratch = Database.create ~symbols:(Database.symbols db) () in
  match Database_io.parse_line scratch line with
  | None -> None
  | Some id ->
    let info = Database.tuple scratch id in
    Database.find db info.Database.rel info.Database.args

type answer =
  | Value of int * Database.tuple_id list
  | Query_false
  | No_contingency
  | Budget

let summary prefix = function
  | Value (v, _) -> Printf.sprintf "%s %d" prefix v
  | Query_false -> prefix ^ " query_false"
  | No_contingency -> prefix ^ " no_contingency"
  | Budget -> prefix ^ " budget"

let of_res = function
  | Solve.Solved a -> Value (a.Solve.res_value, a.Solve.contingency)
  | Solve.Query_false -> Query_false
  | Solve.No_contingency -> No_contingency
  | Solve.Budget_exhausted _ -> Budget

let of_rsp = function
  | Solve.Solved a -> Value (a.Solve.rsp_value, a.Solve.responsibility_set)
  | Solve.Query_false -> Query_false
  | Solve.No_contingency -> No_contingency
  | Solve.Budget_exhausted _ -> Budget

let layered h ?target sem q db =
  let layer name f = Harness.layer h name f in
  let ws = layer "relalg.eval" (fun () -> Eval.witnesses q db) in
  Harness.bump h "relalg.eval.witnesses_out" (float_of_int (List.length ws));
  if ws = [] then Query_false
  else
    let encoded =
      layer "resilience.encode" (fun () ->
          match target with
          | None -> Encode.res_of_witnesses Encode.Ilp sem q db ws
          | Some t -> Encode.rsp_of_witnesses Encode.Ilp sem q db ws t)
    in
    match encoded with
    | Encode.Trivial _ -> Query_false
    | Encode.Impossible -> No_contingency
    | Encode.Encoded enc -> (
      Harness.bump h "resilience.encode.rows"
        (float_of_int (Lp.Model.num_constrs enc.Encode.model));
      let fz = layer "lp.frozen" (fun () -> Lp.Frozen.of_model enc.Encode.model) in
      Harness.bump h "lp.frozen.nnz" (float_of_int (Lp.Frozen.nnz fz));
      match layer "lp.presolve" (fun () -> Lp.Presolve.presolve fz) with
      | Lp.Presolve.Infeasible | Lp.Presolve.Unbounded -> No_contingency
      | Lp.Presolve.Reduced (rfz, vm) -> (
        let s = Lp.Presolve.summary vm in
        Harness.bump h "lp.presolve.rows_in" (float_of_int (Lp.Frozen.num_rows fz));
        Harness.bump h "lp.presolve.rows_removed"
          (float_of_int (Lp.Frozen.num_rows fz - Lp.Frozen.num_rows rfz));
        Harness.bump h "lp.presolve.passes" (float_of_int s.Lp.Presolve.passes);
        let cert = layer "lp.struct" (fun () -> Lp.Struct.analyze rfz) in
        if Lp.Struct.is_integral cert then Harness.bump h "lp.struct.integral" 1.;
        let ivars = Lp.Frozen.integer_vars rfz in
        let offset = float_of_int (Lp.Presolve.obj_offset vm) in
        let finish obj x =
          let sol = Lp.Presolve.lift vm ~of_int:float_of_int x in
          Value (int_of_float (Float.round (obj +. offset)), Encode.contingency enc sol)
        in
        let open Lp.Solvers.Float_bb in
        let session, root =
          layer "lp.simplex" (fun () ->
              let session = create_session rfz in
              (session, relax session))
        in
        match root with
        | `Optimal (obj, x) when Lp.Solvers.Float_simplex.integral_on x ivars -> finish obj x
        | `Optimal _ | `Infeasible | `Unbounded -> (
          let r = layer "lp.branch_bound" (fun () -> solve_session ~node_limit session) in
          match r.status with
          | Optimal -> finish (Option.get r.objective) (Option.get r.solution)
          | Infeasible | Unbounded -> No_contingency
          | Feasible | Limit_no_solution -> Budget)))

let resilience h sem q db =
  if h.Harness.traced then layered h sem q db
  else of_res (Solve.resilience ~node_limit sem q db)

let responsibility h sem q db t =
  if h.Harness.traced then layered h ~target:t sem q db
  else of_rsp (Solve.responsibility ~node_limit sem q db t)

(* Every minimum contingency set, on a session the caller created. *)
let enumerate h s =
  let fam =
    Harness.layer h "resilience.enumerate" (fun () ->
        Session.enumerate_resilience ~node_limit s)
  in
  (match fam with
  | Session.Solved f when h.Harness.traced ->
    let st = f.Enumerate.fstats in
    Harness.bump h "resilience.enumerate.cuts" (float_of_int st.Enumerate.cuts);
    Harness.bump h "resilience.enumerate.cut_pivots" (float_of_int st.Enumerate.cut_pivots);
    Harness.bump h "resilience.enumerate.time" st.Enumerate.time
  | _ -> ());
  fam

let enum_summary = function
  | Session.Solved f ->
    Printf.sprintf "enum %d %d" f.Enumerate.opt (List.length f.Enumerate.sets)
  | Session.Query_false -> "enum query_false"
  | Session.No_contingency -> "enum no_contingency"
  | Session.Budget_exhausted _ -> "enum budget"

let session_create h sem q db =
  let t0 = Harness.now () in
  let s = Harness.layer h "resilience.session" (fun () -> Session.create sem q db) in
  Harness.bump h "resilience.session.create_s" (Harness.now () -. t0);
  s
