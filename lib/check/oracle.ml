open! Relalg
open Resilience

type verdict = Pass | Fail of string

type t = {
  name : string;
  descr : string;
  applies : Gen.case -> bool;
  check : Gen.case -> verdict;
}

(* ----- helpers ------------------------------------------------------------- *)

let eps = 1e-6

let kind : 'a Solve.outcome -> string = function
  | Solve.Solved _ -> "solved"
  | Solve.Query_false -> "query_false"
  | Solve.No_contingency -> "no_contingency"
  | Solve.Budget_exhausted _ -> "budget"

let failf fmt = Format.kasprintf (fun s -> Fail s) fmt

let db_only f = function { Gen.shape = Gen.Db _; _ } -> f | _ -> false
let lp_only f = function { Gen.shape = Gen.Lp _; _ } -> f | _ -> false

let on_db check case =
  match case.Gen.shape with Gen.Db c -> check c | Gen.Lp _ -> Pass

let on_lp check case =
  match case.Gen.shape with Gen.Lp c -> check c | Gen.Db _ -> Pass

(* Combine sub-checks, reporting the first failure. *)
let rec all_of = function
  | [] -> Pass
  | check :: rest -> ( match check () with Pass -> all_of rest | Fail _ as f -> f)

(* The cold reference ranking: a fresh encode + freeze + solve per tuple —
   exactly what the session layer must agree with. *)
let cold_ranking ~exact sem q db =
  Database.tuples db
  |> List.filter_map (fun info ->
         let tid = info.Database.id in
         if Problem.tuple_exo q db tid then None
         else
           match Solve.responsibility ~exact sem q db tid with
           | Solve.Solved a -> Some (tid, a.Solve.rsp_value)
           | Solve.Query_false | Solve.No_contingency | Solve.Budget_exhausted _ -> None)
  |> List.stable_sort (fun (_, a) (_, b) -> compare a b)

(* ----- database oracles ---------------------------------------------------- *)

(* Float pipeline vs the identical pipeline over exact rationals. *)
let float_vs_exact ({ sem; q; db } : Gen.db_case) =
  let f = Solve.resilience ~exact:false sem q db in
  let e = Solve.resilience ~exact:true sem q db in
  all_of
    [
      (fun () ->
        match (f, e) with
        | Solve.Solved a, Solve.Solved b when a.Solve.res_value <> b.Solve.res_value ->
          failf "RES*: float %d <> exact %d" a.Solve.res_value b.Solve.res_value
        | _ when kind f <> kind e -> failf "RES* verdict: float %s <> exact %s" (kind f) (kind e)
        | _ -> Pass);
      (fun () ->
        match (Solve.resilience_lp ~exact:false sem q db, Solve.resilience_lp ~exact:true sem q db) with
        | Some a, Some b when Float.abs (a -. b) > 1e-5 ->
          failf "LP[RES*]: float %g <> exact %g" a b
        | Some _, None | None, Some _ -> failf "LP[RES*]: float and exact disagree on existence"
        | _ -> Pass);
    ]

(* Warm-started session (shared super-model) vs one-shot cold solves. *)
let warm_vs_cold ({ sem; q; db } : Gen.db_case) =
  let session = Session.create sem q db in
  all_of
    [
      (fun () ->
        match (Session.resilience session, Solve.resilience sem q db) with
        | Session.Solved a, Solve.Solved b when a.Session.res_value <> b.Solve.res_value ->
          failf "RES*: session %d <> cold %d" a.Session.res_value b.Solve.res_value
        | Session.Solved a, Solve.Solved _
          when not (Solve.verify_contingency sem q db a.Session.contingency) ->
          Fail "session contingency set does not falsify the query"
        | s, c when kind s <> kind c -> failf "RES* verdict: session %s <> cold %s" (kind s) (kind c)
        | _ -> Pass);
      (fun () ->
        let warm = List.map (fun (tid, k, _) -> (tid, k)) (Session.ranking session) in
        let cold = cold_ranking ~exact:false sem q db in
        if warm <> cold then
          failf "ranking: session has %d entries vs cold %d (or a k differs)"
            (List.length warm) (List.length cold)
        else Pass);
    ]

(* Many rankings through one session: the cross-solve warm-start chain must
   be drift-free (the PR 2 eta-drift regression class). *)
let warm_replay ({ sem; q; db } : Gen.db_case) =
  let session = Session.create sem q db in
  let first = Session.ranking session in
  let rec go i =
    if i = 0 then Pass
    else begin
      (* Interleave a resilience delta so the basis the next ranking warms
         from differs from the one the previous ranking left. *)
      ignore (Session.resilience session);
      if Session.ranking session <> first then
        failf "ranking drifted from the first answer after %d warm replays" (13 - i)
      else go (i - 1)
    end
  in
  go 12

(* The same question through [Lp.Presolve]: reduce the frozen encoding,
   solve the reduced program on the float branch-and-bound, and lift the
   optimum back.  The solved value is the reduced optimum plus the presolve
   offset; a lifted point the encoding rejects is reported as [Error]. *)
let via_presolve = function
  | Encode.Trivial _ -> Ok Solve.Query_false
  | Encode.Impossible -> Ok Solve.No_contingency
  | Encode.Encoded enc -> (
    let m = enc.Encode.model in
    match Lp.Presolve.presolve (Lp.Frozen.of_model m) with
    | Lp.Presolve.Infeasible | Lp.Presolve.Unbounded -> Ok Solve.No_contingency
    | Lp.Presolve.Reduced (fz, vm) -> (
      let open Lp.Solvers.Float_bb in
      let r = solve_frozen fz in
      match (r.status, r.objective, r.solution) with
      | Optimal, Some o, Some x ->
        if Lp.Model.check_feasible m (Lp.Presolve.lift vm ~of_int:float_of_int x) then
          Ok (Solve.Solved (o +. float_of_int (Lp.Presolve.obj_offset vm)))
        else Error "lifted point infeasible in the encoding"
      | (Infeasible | Unbounded), _, _ -> Ok Solve.No_contingency
      | _ -> Ok (Solve.Budget_exhausted None)))

(* Presolve must be invisible: the solve path (which runs the encoding as
   built) and the presolved reduction of the same encoding agree on every
   value and verdict, for resilience and every tuple's responsibility. *)
let presolve_on_off ({ sem; q; db } : Gen.db_case) =
  let agree what raw value encoded () =
    match (raw, via_presolve encoded) with
    | _, Error e -> failf "%s: %s" what e
    | Solve.Solved a, Ok (Solve.Solved p) when Float.abs (float_of_int (value a) -. p) > eps ->
      failf "%s: raw %d <> presolved %g" what (value a) p
    | r, Ok p when kind r <> kind p -> failf "%s verdict: raw %s <> presolved %s" what (kind r) (kind p)
    | _ -> Pass
  in
  let ws = Eval.witnesses q db in
  all_of
    (agree "RES*" (Solve.resilience sem q db)
       (fun a -> a.Solve.res_value)
       (Encode.res_of_witnesses Encode.Ilp sem q db ws)
    :: List.map
         (fun tid ->
           agree (Printf.sprintf "RSP*(t%d)" tid)
             (Solve.responsibility sem q db tid)
             (fun a -> a.Solve.rsp_value)
             (Encode.rsp_of_witnesses Encode.Ilp sem q db ws tid))
         (Problem.endogenous_tuples q db))

(* The unified ILP vs exhaustive search (small instances only). *)
let vs_bruteforce ({ sem; q; db } : Gen.db_case) =
  all_of
    ((fun () ->
       match (Solve.resilience sem q db, Bruteforce.resilience sem q db) with
       | Solve.Solved a, Some v when a.Solve.res_value <> v ->
         failf "RES*: ILP %d <> brute force %d" a.Solve.res_value v
       | Solve.Solved a, None -> failf "RES*: ILP solved %d, brute force found nothing" a.Solve.res_value
       | (Solve.Query_false | Solve.No_contingency), Some v ->
         failf "RES*: ILP says none, brute force found %d" v
       | _ -> Pass)
    :: List.map
         (fun tid () ->
           match (Solve.responsibility sem q db tid, Bruteforce.responsibility sem q db tid) with
           | Solve.Solved a, Some v when a.Solve.rsp_value <> v ->
             failf "RSP*(t%d): ILP %d <> brute force %d" tid a.Solve.rsp_value v
           | Solve.Solved a, None ->
             failf "RSP*(t%d): ILP solved %d, brute force found nothing" tid a.Solve.rsp_value
           | (Solve.Query_false | Solve.No_contingency), Some v ->
             failf "RSP*(t%d): ILP says none, brute force found %d" tid v
           | _ -> Pass)
         (Problem.endogenous_tuples q db))

(* The unified ILP vs the dedicated hitting-set branch-and-bound. *)
let vs_hitting_set ({ sem; q; db } : Gen.db_case) =
  match (Solve.resilience sem q db, Hitting_set.resilience sem q db) with
  | Solve.Solved a, Some (v, picked) ->
    if a.Solve.res_value <> v then failf "RES*: ILP %d <> hitting set %d" a.Solve.res_value v
    else if not (Solve.verify_contingency sem q db picked) then
      Fail "hitting-set contingency does not falsify the query"
    else Pass
  | Solve.Solved a, None -> failf "RES*: ILP solved %d, hitting set found nothing" a.Solve.res_value
  | (Solve.Query_false | Solve.No_contingency), Some (v, _) ->
    failf "RES*: ILP says none, hitting set found %d" v
  | _ -> Pass

(* The ranking must be bit-identical at every job count, and rank what
   cold per-tuple solves rank. *)
let par_vs_seq ({ sem; q; db } : Gen.db_case) =
  let ranking jobs = Session.ranking ~jobs (Session.create sem q db) in
  let sequential = ranking 1 in
  let rec go = function
    | [] -> Pass
    | jobs :: rest ->
      if ranking jobs <> sequential then
        failf "ranking with %d jobs differs from the sequential ranking" jobs
      else go rest
  in
  if List.map (fun (tid, k, _) -> (tid, k)) sequential <> cold_ranking ~exact:false sem q db
  then Fail "sequential ranking differs from cold per-tuple solves"
  else go [ 2; 4 ]

(* The paper's sandwich: LP[RES*] <= RES* <= every approximation's value,
   and each approximation's deletion set really falsifies the query. *)
let sandwich ({ sem; q; db } : Gen.db_case) =
  match Solve.resilience sem q db with
  | Solve.Solved a ->
    let ilp = float_of_int a.Solve.res_value in
    let upper name (r : Approx.result option) () =
      match r with
      | None -> Pass
      | Some r ->
        if float_of_int r.Approx.value < ilp -. eps then
          failf "%s value %d below RES* %d" name r.Approx.value a.Solve.res_value
        else if not (Solve.verify_contingency sem q db r.Approx.tuples) then
          failf "%s deletion set does not falsify the query" name
        else Pass
    in
    all_of
      [
        (fun () ->
          match Solve.resilience_lp sem q db with
          | Some lp when lp > ilp +. eps -> failf "LP[RES*] %g above RES* %d" lp a.Solve.res_value
          | None -> Fail "LP[RES*] has no program but the ILP solved"
          | _ -> Pass);
        upper "LP-rounding" (Approx.lp_rounding_res sem q db);
        upper "Flow-CT" (Approx.flow_ct_res sem q db);
        upper "Flow-CW" (Approx.flow_cw_res sem q db);
        (fun () ->
          match Solve.resilience_flow sem q db with
          | Some (Solve.Solved f) when f.Solve.res_value <> a.Solve.res_value ->
            failf "exact flow baseline %d <> ILP %d" f.Solve.res_value a.Solve.res_value
          | _ -> Pass);
      ]
  | Solve.Query_false | Solve.No_contingency | Solve.Budget_exhausted _ -> Pass

(* ----- LP oracles ---------------------------------------------------------- *)

module FS = Lp.Solvers.Float_simplex
module ES = Lp.Solvers.Exact_simplex
module FB = Lp.Solvers.Float_bb
module EB = Lp.Solvers.Exact_bb

(* One warm session replays the whole delta sequence; every step must match
   a cold session (fresh all-slack basis) on the same delta.  This is the
   sharpest detector for basis/inverse drift across warm solves, and for
   the warm entry that moves a session by the diff between consecutive
   deltas.  The float leg compares within 1e-7 and checks the warm point;
   the exact leg replays the sequence over rationals and wants equal
   objectives, with no tolerance to hide an entry that drops a change.
   Rational solves on the larger generated programs take seconds each, so
   the exact leg runs on the small ones only (see [small_lp]). *)
let lp_warm_vs_cold ~small ({ frozen; deltas } : Gen.lp_case) =
  let warm = FS.create_session frozen in
  let rec go i = function
    | [] -> Pass
    | delta :: rest -> (
      let w = FS.session_solve warm delta in
      let c = FS.session_solve (FS.create_session frozen) delta in
      match (w, c) with
      | FS.Optimal { objective = wo; solution = ws }, FS.Optimal { objective = co; _ } ->
        if Float.abs (wo -. co) > 1e-7 then
          failf "step %d: warm objective %.9g <> cold %.9g" i wo co
        else if not (Lp.Frozen.check_feasible ~delta frozen ws) then
          failf "step %d: warm solution violates the program" i
        else go (i + 1) rest
      | FS.Infeasible, FS.Infeasible -> go (i + 1) rest
      | _ -> failf "step %d: warm and cold outcome kinds differ" i)
  in
  let exact_warm = ES.create_session frozen in
  let rec go_exact i = function
    | [] -> Pass
    | delta :: rest -> (
      let w = ES.session_solve exact_warm delta in
      let c = ES.session_solve (ES.create_session frozen) delta in
      match (w, c) with
      | ES.Optimal { objective = wo; _ }, ES.Optimal { objective = co; _ } ->
        if Numeric.Rat.equal wo co then go_exact (i + 1) rest
        else
          failf "step %d: exact warm objective %s <> cold %s" i (Numeric.Rat.to_string wo)
            (Numeric.Rat.to_string co)
      | ES.Infeasible, ES.Infeasible -> go_exact (i + 1) rest
      | _ -> failf "step %d: exact warm and cold outcome kinds differ" i)
  in
  all_of [ (fun () -> go 0 deltas); (fun () -> if small then go_exact 0 deltas else Pass) ]

(* Float branch-and-bound (and root LP) vs the exact rational instantiation
   on the base program and a few deltas.  Small programs only: the exact
   path is the slow oracle. *)
let lp_float_vs_exact ({ frozen; deltas } : Gen.lp_case) =
  let fb_kind = function
    | FB.Optimal -> "optimal"
    | FB.Feasible -> "feasible"
    | FB.Infeasible -> "infeasible"
    | FB.Unbounded -> "unbounded"
    | FB.Limit_no_solution -> "limit"
  in
  let eb_kind = function
    | EB.Optimal -> "optimal"
    | EB.Feasible -> "feasible"
    | EB.Infeasible -> "infeasible"
    | EB.Unbounded -> "unbounded"
    | EB.Limit_no_solution -> "limit"
  in
  let take3 = function a :: b :: c :: _ -> [ a; b; c ] | l -> l in
  let checks =
    List.map
      (fun delta () ->
        let f = FB.solve_frozen ~delta frozen in
        let e = EB.solve_frozen ~delta frozen in
        if fb_kind f.FB.status <> eb_kind e.EB.status then
          failf "B&B status: float %s <> exact %s" (fb_kind f.FB.status) (eb_kind e.EB.status)
        else
          match (f.FB.objective, e.EB.objective) with
          | Some a, Some b when Float.abs (a -. Numeric.Rat.to_float b) > 1e-6 ->
            failf "B&B objective: float %g <> exact %s" a (Numeric.Rat.to_string b)
          | _ -> Pass)
      (Lp.Frozen.Delta.empty :: take3 deltas)
  in
  all_of checks

(* ----- basis-kernel differential -------------------------------------------- *)

(* The sparse LU kernel vs the dense reference inverse, over the same warm
   delta chain: identical outcome kinds, matching optima, and a
   program-feasible sparse solution at every step.  Pivot sequences may
   differ (pricing order is kernel-dependent), so only basis-independent
   quantities are compared. *)
let basis_lp ({ frozen; deltas } : Gen.lp_case) =
  let dense = FS.create_session ~kernel:`Dense frozen in
  let sparse = FS.create_session ~kernel:`Sparse frozen in
  let rec go i = function
    | [] -> Pass
    | delta :: rest -> (
      match (FS.session_solve sparse delta, FS.session_solve dense delta) with
      | FS.Optimal { objective = so; solution = ss }, FS.Optimal { objective = dobj; _ } ->
        if Float.abs (so -. dobj) > 1e-7 then
          failf "step %d: sparse objective %.9g <> dense %.9g" i so dobj
        else if not (Lp.Frozen.check_feasible ~delta frozen ss) then
          failf "step %d: sparse-kernel solution violates the program" i
        else go (i + 1) rest
      | FS.Infeasible, FS.Infeasible -> go (i + 1) rest
      | _ -> failf "step %d: sparse and dense kernel outcome kinds differ" i)
  in
  go 0 deltas

(* End to end on a database: rankings through a sparse-kernel session at
   jobs 1/2/4 must be bit-identical to the dense-kernel reference ranking
   (k values are integers and scores are derived from them, so equality is
   exact, not approximate). *)
let basis_db ({ sem; q; db } : Gen.db_case) =
  let ranking basis jobs = Session.ranking ~jobs (Session.create ~basis sem q db) in
  let dense = ranking `Dense 1 in
  let rec go = function
    | [] -> Pass
    | jobs :: rest ->
      if ranking `Sparse jobs <> dense then
        failf "sparse-kernel ranking at %d jobs differs from the dense reference" jobs
      else go rest
  in
  go [ 1; 2; 4 ]

let dense_vs_sparse_basis case =
  match case.Gen.shape with Gen.Db c -> basis_db c | Gen.Lp c -> basis_lp c

(* ----- certificate soundness ------------------------------------------------ *)

(* Lp.Struct is advisory for performance but must never lie: its verify must
   accept every certificate analyze emits, structural witnesses must
   transfer to every delta (TU is closed under taking submatrices), and an
   Integral verdict must imply the branch-and-bound finds the root LP
   integral. *)
let struct_soundness_lp ({ frozen; deltas } : Gen.lp_case) =
  let cert = Lp.Struct.analyze ~probe_root:true frozen in
  all_of
    [
      (fun () ->
        if Lp.Struct.verify frozen cert then Pass
        else failf "emitted %s certificate rejected by its own verify"
               (Lp.Struct.verdict_name cert));
      (fun () ->
        if not (Lp.Struct.structural cert) then Pass
        else if List.for_all (fun delta -> Lp.Struct.verify ~delta frozen cert) deltas then
          Pass
        else Fail "structural certificate does not transfer to a delta of its program");
      (fun () ->
        match cert.Lp.Struct.verdict with
        | Lp.Struct.Integral _ -> (
          let r = FB.solve_frozen frozen in
          match r.FB.status with
          | FB.Optimal when not r.FB.root_integral ->
            Fail "certified integral but the branch-and-bound root was fractional"
          | _ -> Pass)
        | Lp.Struct.Fractional _ | Lp.Struct.Unknown -> Pass);
    ]

(* On database cases the certificate feeds the cross-layer validator: it
   must never report a V101 contradiction, and an integral certificate must
   mean LP[RES*] already attains RES*. *)
let struct_soundness_db ({ sem; q; db } : Gen.db_case) =
  let report = Validate.validate sem q db in
  all_of
    [
      (fun () ->
        match Lp.Lint.errors report.Validate.diags with
        | [] -> Pass
        | d :: _ -> failf "cross-layer validator: %s %s" d.Lp.Lint.code d.Lp.Lint.message);
      (fun () ->
        match report.Validate.cert with
        | Some c when Lp.Struct.is_integral c -> (
          match (Solve.resilience sem q db, Solve.resilience_lp sem q db) with
          | Solve.Solved a, Some lp
            when Float.abs (lp -. float_of_int a.Solve.res_value) > 1e-5 ->
            failf "certified integral but LP[RES*] %g <> RES* %d" lp a.Solve.res_value
          | _ -> Pass)
        | _ -> Pass);
    ]

let struct_soundness case =
  match case.Gen.shape with
  | Gen.Db c -> struct_soundness_db c
  | Gen.Lp c -> struct_soundness_lp c

(* ----- incremental service -------------------------------------------------- *)

(* The delta-maintenance core behind [resil serve]: a random insert/delete
   stream applied through [Session.insert]/[delete] must leave the session
   agreeing with from-scratch enumeration + encode + solve after every
   mutation — the distinct witness tuple sets, the RES* value and verdict,
   a sampled tuple's RSP*, the full ranking and the minimum-contingency
   family; any returned contingency must falsify the query.  This covers
   the write overlays, the counterfactual refresh and the rebuilds.  The
   same stream is replayed at float and at exact-rational fields. *)

let serve_incremental_step ~step ~exact sem q ses =
  let db = Session.db ses in
  all_of
    [
      (fun () ->
        let want = List.sort compare (Eval.unique_tuple_sets (Eval.witnesses q db)) in
        let got = List.sort compare (Session.tuple_sets ses) in
        if got <> want then
          failf "step %d: maintained tuple sets diverge (%d vs %d)" step (List.length got)
            (List.length want)
        else Pass);
      (fun () ->
        match (Session.resilience ses, Solve.resilience ~exact sem q db) with
        | Session.Solved a, Solve.Solved b when a.Session.res_value <> b.Solve.res_value ->
          failf "step %d: incremental RES* %d <> cold %d" step a.Session.res_value
            b.Solve.res_value
        | Session.Solved a, Solve.Solved _
          when not (Solve.verify_contingency sem q db a.Session.contingency) ->
          failf "step %d: incremental contingency does not falsify the query" step
        | i, c when kind i <> kind c ->
          failf "step %d: RES* verdict: incremental %s <> cold %s" step (kind i) (kind c)
        | _ -> Pass);
      (fun () ->
        match
          List.find_opt (fun info -> not (Problem.tuple_exo q db info.Database.id)) (Database.tuples db)
        with
        | None -> Pass
        | Some info -> (
          let tid = info.Database.id in
          match (Session.responsibility ses tid, Solve.responsibility ~exact sem q db tid) with
          | Session.Solved a, Solve.Solved b when a.Session.rsp_value <> b.Solve.rsp_value ->
            failf "step %d: incremental RSP*(t%d) %d <> cold %d" step tid a.Session.rsp_value
              b.Solve.rsp_value
          | i, c when kind i <> kind c ->
            failf "step %d: RSP*(t%d) verdict: incremental %s <> cold %s" step tid (kind i)
              (kind c)
          | _ -> Pass));
      (fun () ->
        let warm = List.map (fun (tid, k, _) -> (tid, k)) (Session.ranking ses) in
        if warm <> cold_ranking ~exact sem q db then
          failf "step %d: incremental ranking differs from cold per-tuple solves" step
        else Pass);
      (fun () ->
        match (Session.enumerate_resilience ses, Solve.enumerate_resilience ~exact sem q db) with
        | Session.Solved a, Session.Solved b
          when (a.Enumerate.opt, a.Enumerate.sets, a.Enumerate.exhausted)
               <> (b.Enumerate.opt, b.Enumerate.sets, b.Enumerate.exhausted) ->
          failf "step %d: incremental RES family differs from a cold enumeration" step
        | i, c when kind i <> kind c ->
          failf "step %d: RES family verdict: incremental %s <> cold %s" step (kind i) (kind c)
        | _ -> Pass);
    ]

let serve_incremental_db seed ({ sem; q; db } : Gen.db_case) =
  let templates =
    List.sort_uniq compare
      (List.map (fun info -> (info.Database.rel, Array.length info.Database.args)) (Database.tuples db))
  in
  if templates = [] then Pass
  else begin
    (* The op stream is precomputed against a scratch copy so the float and
       exact replays see identical mutations (ids stay in lockstep because
       [Database.copy] preserves ids and the id counter). *)
    let rng = Splitmix.of_seed (seed lxor 0x5e7f1e) in
    let scratch = Database.copy db in
    let steps = Splitmix.in_range rng 4 6 in
    (* left-to-right: each op's draws must precede the next op's *)
    let rec ops_seq acc i =
      if i = steps then List.rev acc
      else
        let op =
          let live = Database.tuples scratch in
          if live <> [] && Splitmix.chance rng 2 5 then begin
            let info = Splitmix.choose rng live in
            Database.remove scratch info.Database.id;
            `Del info.Database.id
          end
          else begin
            let rel, arity = Splitmix.choose rng templates in
            let args = Array.init arity (fun _ -> Splitmix.in_range rng 0 4) in
            let mult = if sem = Problem.Bag && Splitmix.chance rng 1 4 then 2 else 1 in
            let exo = Splitmix.chance rng 1 5 in
            ignore (Database.add ~mult ~exo scratch rel args);
            `Ins (rel, args, mult, exo)
          end
        in
        ops_seq (op :: acc) (i + 1)
    in
    let ops = ops_seq [] 0 in
    let replay exact =
      (* The session borrows its database: each replay writes its own copy. *)
      let db = Database.copy db in
      let ses = Session.create ~exact sem q db in
      let rec go step = function
        | [] -> Pass
        | op :: rest -> (
          (match op with
          | `Ins (rel, args, mult, exo) ->
            ignore (Session.insert ~mult ~exo db [ ses ] rel args)
          | `Del id -> Session.delete db [ ses ] id);
          match serve_incremental_step ~step ~exact sem q ses with
          | Pass -> go (step + 1) rest
          | Fail m -> Fail (Printf.sprintf "exact=%b %s" exact m))
      in
      go 0 ops
    in
    all_of [ (fun () -> replay false); (fun () -> replay true) ]
  end

let serve_incremental case =
  match case.Gen.shape with
  | Gen.Db c -> serve_incremental_db case.Gen.seed c
  | Gen.Lp _ -> Pass

(* ----- solution enumeration -------------------------------------------------- *)

(* The enumeration engine vs exhaustive search: every path that streams
   minimum contingency sets — the warm session (float, exact, parallel) and
   the cold reference — must return EXACTLY the brute-force
   family, in canonical order, with a criticality table re-derivable from
   the sets.  Small instances only: the brute force walks all 2^n subsets. *)
let enumeration_complete ({ sem; q; db } : Gen.db_case) =
  let crit_check label (f : Enumerate.family) =
    let crits = Enumerate.criticality f in
    let total = List.length f.Enumerate.sets in
    let count_of tid = List.length (List.filter (List.mem tid) f.Enumerate.sets) in
    let rec go = function
      | [] ->
        (* Every membership is counted exactly once: sum of per-tuple
           counts = sum of set sizes. *)
        let sum_counts =
          List.fold_left (fun a (c : Enumerate.criticality) -> a + c.Enumerate.crit_count) 0 crits
        in
        let sum_sizes = List.fold_left (fun a s -> a + List.length s) 0 f.Enumerate.sets in
        if sum_counts <> sum_sizes then
          failf "%s: criticality counts sum to %d but set sizes sum to %d" label sum_counts
            sum_sizes
        else Pass
      | (c : Enumerate.criticality) :: rest ->
        if c.Enumerate.crit_total <> total then
          failf "%s: criticality total %d <> family size %d" label c.Enumerate.crit_total total
        else if c.Enumerate.crit_count <> count_of c.Enumerate.crit_tuple then
          failf "%s: t%d criticality count %d <> recount %d" label c.Enumerate.crit_tuple
            c.Enumerate.crit_count
            (count_of c.Enumerate.crit_tuple)
        else if c.Enumerate.crit_count <= 0 || c.Enumerate.crit_count > total then
          failf "%s: t%d criticality count %d outside (0, %d]" label c.Enumerate.crit_tuple
            c.Enumerate.crit_count total
        else if
          Float.abs
            (c.Enumerate.crit_float
            -. (float_of_int c.Enumerate.crit_count /. float_of_int total))
          > 1e-9
        then failf "%s: t%d criticality float %g <> %d/%d" label c.Enumerate.crit_tuple
               c.Enumerate.crit_float c.Enumerate.crit_count total
        else if
          not (Numeric.Rat.equal c.Enumerate.crit_exact (Numeric.Rat.of_ints c.Enumerate.crit_count total))
        then
          failf "%s: t%d criticality exact %s <> %d/%d" label c.Enumerate.crit_tuple
            (Numeric.Rat.to_string c.Enumerate.crit_exact)
            c.Enumerate.crit_count total
        else go rest
    in
    go crits
  in
  let check ~brute label outcome =
    match (outcome, brute) with
    | Solve.Solved f, Some (w, sets) ->
      if f.Enumerate.opt <> w then failf "%s: opt %d <> brute force %d" label f.Enumerate.opt w
      else if not f.Enumerate.exhausted then
        failf "%s: not exhausted on an unbudgeted small instance" label
      else if f.Enumerate.sets <> sets then
        failf "%s: %d set(s) <> brute force %d (or the sets themselves differ)" label
          (List.length f.Enumerate.sets)
          (List.length sets)
      else crit_check label f
    | Solve.Solved f, None ->
      failf "%s: enumerated %d set(s), brute force found none" label (List.length f.Enumerate.sets)
    | (Solve.Query_false | Solve.No_contingency), Some (w, _) ->
      failf "%s: says no family, brute force found opt %d" label w
    | (Solve.Query_false | Solve.No_contingency), None -> Pass
    | Solve.Budget_exhausted _, _ -> failf "%s: budget exhausted on an unbudgeted solve" label
  in
  let of_cold = function
    | Enumerate.Family f -> Solve.Solved f
    | Enumerate.Query_false -> Solve.Query_false
    | Enumerate.No_contingency -> Solve.No_contingency
    | Enumerate.Budget -> Solve.Budget_exhausted None
  in
  let bres = Bruteforce.resilience_family sem q db in
  all_of
    ([
       (fun () -> check ~brute:bres "RES warm float" (Solve.enumerate_resilience sem q db));
       (fun () ->
         check ~brute:bres "RES warm exact" (Solve.enumerate_resilience ~exact:true sem q db));
       (fun () ->
         check ~brute:bres "RES warm jobs=2" (Solve.enumerate_resilience ~jobs:2 sem q db));
       (fun () -> check ~brute:bres "RES cold" (of_cold (Enumerate.resilience_cold sem q db)));
       (fun () ->
         check ~brute:bres "RES cold exact"
           (of_cold (Enumerate.resilience_cold ~exact:true sem q db)));
     ]
    @
    match Problem.endogenous_tuples q db with
    | [] -> []
    | tid :: _ ->
      let brsp = Bruteforce.responsibility_family sem q db tid in
      [
        (fun () ->
          check ~brute:brsp "RSP warm float" (Solve.enumerate_responsibility sem q db tid));
        (fun () ->
          check ~brute:brsp "RSP warm exact"
            (Solve.enumerate_responsibility ~exact:true sem q db tid));
        (fun () ->
          check ~brute:brsp "RSP cold" (of_cold (Enumerate.responsibility_cold sem q db tid)));
      ])

(* ----- the matrix ---------------------------------------------------------- *)

let small_db case =
  match case.Gen.shape with Gen.Db c -> Gen.endo_count c <= 13 | Gen.Lp _ -> false

let small_lp case =
  match case.Gen.shape with
  | Gen.Lp c -> Lp.Frozen.num_vars c.frozen <= 10 && Lp.Frozen.num_rows c.frozen <= 10
  | Gen.Db _ -> false

let all =
  [
    {
      name = "float_vs_exact";
      descr = "float simplex pipeline = exact rational pipeline (RES*, LP[RES*])";
      applies = db_only true;
      check = on_db float_vs_exact;
    };
    {
      name = "warm_vs_cold";
      descr = "warm Resilience.Session = one-shot cold Solve, per question";
      applies = db_only true;
      check = on_db warm_vs_cold;
    };
    {
      name = "warm_replay";
      descr = "repeated rankings through one session never drift";
      applies = db_only true;
      check = on_db warm_replay;
    };
    {
      name = "presolve_on_off";
      descr = "presolving the encoding preserves every optimum and verdict";
      applies = db_only true;
      check = on_db presolve_on_off;
    };
    {
      name = "vs_bruteforce";
      descr = "ILP = exhaustive search (RES* and every tuple's RSP*; small instances)";
      applies = small_db;
      check = on_db vs_bruteforce;
    };
    {
      name = "vs_hitting_set";
      descr = "ILP = dedicated hitting-set branch-and-bound";
      applies = db_only true;
      check = on_db vs_hitting_set;
    };
    {
      name = "par_vs_seq";
      descr = "ranking at jobs 1/2/4 is bit-identical and equals cold per-tuple solves";
      applies = db_only true;
      check = on_db par_vs_seq;
    };
    {
      name = "sandwich";
      descr = "LP[RES*] <= RES* <= flow/rounding upper bounds, with valid deletion sets";
      applies = db_only true;
      check = on_db sandwich;
    };
    {
      name = "struct_soundness";
      descr = "Lp.Struct certificates verify, transfer across deltas, never contradict solvers";
      applies = (fun _ -> true);
      check = struct_soundness;
    };
    {
      name = "dense_vs_sparse_basis";
      descr = "sparse LU kernel = dense reference inverse (optima; rankings at jobs 1/2/4)";
      applies = (fun _ -> true);
      check = dense_vs_sparse_basis;
    };
    {
      name = "lp_warm_vs_cold";
      descr = "warm simplex session = cold session on every delta (float; exact on small programs)";
      applies = lp_only true;
      check = (fun case -> on_lp (lp_warm_vs_cold ~small:(small_lp case)) case);
    };
    {
      name = "lp_float_vs_exact";
      descr = "float branch-and-bound = exact rational branch-and-bound (small programs)";
      applies = small_lp;
      check = on_lp lp_float_vs_exact;
    };
    {
      name = "enumeration_complete";
      descr =
        "enumeration (warm float/exact/parallel, cold reference) = brute-force family, with \
         criticality cross-check (small instances)";
      applies = small_db;
      check = on_db enumeration_complete;
    };
    {
      name = "serve_incremental";
      descr = "incremental witness/program maintenance = from-scratch re-enumeration, under insert/delete streams";
      applies = small_db;
      check = serve_incremental;
    };
  ]

let named name = List.find_opt (fun o -> o.name = name) all

let select names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
      match named n with Some o -> go (o :: acc) rest | None -> Error n)
  in
  go [] names

let run oracles case =
  List.filter_map
    (fun o -> if o.applies case then Some (o.name, o.check case) else None)
    oracles
