open Relalg

type stats = {
  nodes : int;
  root_lp : float;
  root_integral : bool;
  certified : bool;
  solve_time : float;
  prep_time : float;
  pivots : int;
  refactors : int;
}

(* Certificate-aware dispatch telemetry: solves settled by an integrality
   certificate (an integral root-LP vertex, no branch-and-bound). *)
let c_certified = Obs.Counter.create "solve.certified"

(* Enumeration telemetry: no-good cuts appended, optimal sets streamed, and
   enumerations that proved their family complete (final re-solve
   infeasible) rather than stopping on a cap or budget. *)
let c_enum_cuts = Obs.Counter.create "enum.cuts"
let c_enum_solutions = Obs.Counter.create "enum.solutions"
let c_enum_exhausted = Obs.Counter.create "enum.exhausted"

(* Metrics-plane distributions: what the old counters reduce to a single
   sum, kept as full per-solve histograms when a plane is armed. *)
let h_solve_seconds =
  Obs.Metrics.histogram ~help:"Wall seconds per ILP solve (certificate-aware dispatch)"
    "session.solve.seconds"

let h_solve_pivots =
  Obs.Metrics.histogram ~help:"Simplex pivots per ILP solve" "session.solve.pivots"

let h_solve_nodes =
  Obs.Metrics.histogram ~help:"Branch-and-bound nodes per ILP solve" "session.solve.nodes"

type 'a outcome =
  | Solved of 'a
  | Query_false
  | No_contingency
  | Budget_exhausted of int option

type res_answer = { res_value : int; contingency : Database.tuple_id list; res_stats : stats }

type rsp_answer = {
  rsp_value : int;
  responsibility_set : Database.tuple_id list;
  rsp_stats : stats;
}

type profile = {
  witnesses_s : float;
  encode_s : float;
  prep_s : float;
  solve_s : float;
  questions : int;
}

(* Internal accumulator behind {!profile}.  Phase fields are written when
   the corresponding (lazy) work actually runs; solve fields are summed on
   the submitter as answers come back, so parallel rankings never race on
   it. *)
type acc = {
  mutable a_witnesses : float;
  mutable a_encode : float;
  mutable a_prep : float;
  mutable a_solve : float;
  mutable a_questions : int;
}

let fresh_acc () =
  { a_witnesses = 0.; a_encode = 0.; a_prep = 0.; a_solve = 0.; a_questions = 0 }

(* The maintained program: the shared encoding as frozen at build, plus an
   overlay that writes grow.  Every question's delta starts from
   [coverlay]: its appends are the columns and rows inserts and
   counterfactual refreshes added, its bound fixes force every live
   witness indicator to 1 and pin deleted tuples to 0 and retired
   counterfactual slacks to 1. *)
type core = {
  cfz : Lp.Frozen.t;
      (* the program exactly as encoded, which every engine solves: deltas,
         appended rows and solutions all speak its variable numbering *)
  cengine : Lp.Solvers.engine Lazy.t;
      (* the submitter's warm engine, built by the first question that
         solves on it; a ranking opens its own engines instead *)
  ccols : Encode.columns;  (* tuple columns, base + appended *)
  mutable clive : (Lp.Model.var * Database.tuple_id list) list;
      (* live witness indicators, newest first, with their full tuple sets *)
  mutable cz : Lp.Model.var;  (* slack of the current counterfactual row *)
  mutable cmoved : bool;  (* [clive] moved since that row was written *)
  mutable coverlay : Lp.Frozen.Delta.t;
  mutable cnvars : int;  (* base + appended *)
  mutable cints : Lp.Model.var list;  (* integer variables, base + appended *)
  mutable cgrown : int;  (* appended nonzeros *)
}

type t = {
  sdb : Database.t;  (* borrowed; mutated only through [insert]/[delete] *)
  sq : Cq.t;
  ssem : Problem.semantics;
  sexact : bool;
  sbasis : Lp.Basis.choice;
  mutable ssets : Database.tuple_id list list;
      (* the distinct live witness tuple sets, in encoding order: maintained
         by delta-joins; the next rebuild encodes them *)
  mutable sprog : core option;  (* [None]: no witness, or a blocker, at build *)
  mutable sblockers : Database.tuple_id list list;
      (* live witness tuple sets without an endogenous tuple: nothing can
         destroy them, so no contingency set exists *)
  mutable sstale : bool;
      (* a write the overlay could not take: the next question re-encodes
         the program from [ssets] *)
  sacc : acc;
}

(* Encode and freeze the shared program over the tuple sets: what
   [create] runs once and a stale program's rebuild runs again. *)
let encode t =
  let acc = t.sacc in
  let te0 = Obs.Clock.now () in
  let sprog =
    Obs.Trace.with_span "session.encode" (fun () ->
        match Encode.shared_of_sets t.ssem t.sq t.sdb t.ssets with
        | Encode.Shared_trivial | Encode.Shared_impossible -> None
        | Encode.Shared shared ->
          let raw = shared.Encode.sfz in
          Some
            {
              cfz = raw;
              cengine =
                (* Timed inside the thunk so the cost lands on whichever
                   question actually forces the warm engine. *)
                lazy
                  (Obs.Trace.with_span "session.prep" (fun () ->
                       let t0 = Obs.Clock.now () in
                       let e = Lp.Solvers.engine ~exact:t.sexact ~kernel:t.sbasis raw in
                       acc.a_prep <- acc.a_prep +. Obs.Clock.elapsed t0;
                       e));
              ccols =
                {
                  Encode.col_of_tuple = shared.Encode.svar_of_tuple;
                  tuple_cols = List.rev shared.Encode.stuple_of_var;
                };
              clive = List.rev shared.Encode.switnesses;
              cz = shared.Encode.sz;
              cmoved = false;
              coverlay =
                List.fold_left
                  (fun d (wv, _) -> Lp.Frozen.Delta.force_one wv d)
                  Lp.Frozen.Delta.empty shared.Encode.switnesses;
              cnvars = Lp.Frozen.num_vars raw;
              cints = Lp.Frozen.integer_vars raw;
              cgrown = 0;
            })
  in
  acc.a_encode <- acc.a_encode +. Obs.Clock.elapsed te0;
  t.sprog <- sprog;
  t.sblockers <-
    (if Option.is_some sprog then []
     else List.filter (List.for_all (Problem.tuple_exo t.sq t.sdb)) t.ssets)

let create ?(exact = false) ?(basis = `Sparse) semantics q db =
  let acc = fresh_acc () in
  let tw0 = Obs.Clock.now () in
  let sets =
    Obs.Trace.with_span "session.witnesses" (fun () ->
        Eval.unique_tuple_sets (Eval.witnesses q db))
  in
  acc.a_witnesses <- Obs.Clock.elapsed tw0;
  let t =
    {
      sdb = db;
      sq = q;
      ssem = semantics;
      sexact = exact;
      sbasis = basis;
      ssets = sets;
      sprog = None;
      sblockers = [];
      sstale = false;
      sacc = acc;
    }
  in
  encode t;
  t

let db t = t.sdb
let tuple_sets t = t.ssets

(* Re-encodes from the tuple sets after a write the overlay could not
   take (the first build is not counted); dropped unless a trace sink is
   installed. *)
let c_rebuilds = Obs.Counter.create "incremental.rebuilds"

(* The current program: a stale one is rebuilt first, without a re-join. *)
let program t =
  if t.sstale then begin
    Obs.Counter.incr c_rebuilds;
    t.sstale <- false;
    encode t
  end;
  t.sprog

(* The program a question runs on, or the outcome that needs none: no
   contingency while a blocker is live, a false query when no witness is. *)
let active t =
  match program t with
  | _ when t.sblockers <> [] -> Error No_contingency
  | Some core when core.clive <> [] -> Ok core
  | Some _ | None -> Error Query_false

(* --- Writes ----------------------------------------------------------------- *)

(* Witness sets appended by writes (dropped unless a sink is installed). *)
let c_appends = Obs.Counter.create "incremental.appends"

(* The compaction rule: appended nonzeros past a quarter of the base's. *)
let compaction_due core = 4 * core.cgrown > Lp.Frozen.nnz core.cfz

let append_col core ~name ~integer ~obj =
  let v = core.cnvars in
  core.cnvars <- v + 1;
  if integer then core.cints <- v :: core.cints;
  core.coverlay <- Lp.Frozen.Delta.append_col ~integer ~upper:1 ~name ~obj core.coverlay;
  v

let append_row core sense rhs expr =
  core.cgrown <- core.cgrown + List.length expr;
  core.coverlay <- Lp.Frozen.Delta.append_row sense rhs expr core.coverlay

(* The program format, written as appends to the overlay. *)
let writer t core =
  {
    Encode.col = append_col core;
    row = append_row core;
    integral = (true, true);  (* the shared program is an ILP *)
    weight = Problem.weight t.ssem;
    db = t.sdb;
    cols = core.ccols;
  }

(* One new live witness: its missing tuple columns, then its indicator, so
   that [W] is the newest column and every row of its witness block is in
   normal form. *)
let append_witness t core set endo =
  let p = writer t core in
  let terms = List.sort compare (Encode.tuple_terms p endo) in
  let w = Encode.witness_col p core.cnvars in
  Encode.witness_block p w terms;
  core.clive <- (w, set) :: core.clive;
  core.coverlay <- Lp.Frozen.Delta.force_one w core.coverlay;
  core.cmoved <- true;
  Obs.Counter.incr c_appends

(* The witness tuple sets a fresh-tuple insert created, appended to the
   overlay.  The program goes stale on compaction, or when it has none and
   a new witness needs one. *)
let add_sets t fresh =
  List.iter
    (fun set ->
      match (Encode.endogenous t.sq t.sdb set, t.sprog) with
      | [], _ -> t.sblockers <- set :: t.sblockers
      | endo, Some core -> append_witness t core set endo
      | _ :: _, None -> ())
    fresh;
  let fits =
    match t.sprog with Some core -> not (compaction_due core) | None -> t.sblockers <> []
  in
  if not fits then t.sstale <- true

(* A tuple delete.  The program goes stale on compaction, or when it has
   none and the last blocking witness is gone. *)
let drop_tuple t tid =
  let blocked = t.sblockers <> [] in
  t.sblockers <- List.filter (fun set -> not (List.mem tid set)) t.sblockers;
  let fits =
    match t.sprog with
    | None -> t.sblockers <> [] || not blocked
    | Some core ->
      Option.iter
        (fun v -> core.coverlay <- Lp.Frozen.Delta.fix_zero v core.coverlay)
        (Hashtbl.find_opt core.ccols.Encode.col_of_tuple tid);
      let dead, live = List.partition (fun (_, set) -> List.mem tid set) core.clive in
      if dead <> [] then begin
        core.clive <- live;
        core.coverlay <-
          List.fold_left (fun d (wv, _) -> Lp.Frozen.Delta.release wv d) core.coverlay dead;
        core.cmoved <- true
      end;
      not (compaction_due core)
  in
  if not fits then t.sstale <- true

let check_borrowers db ts =
  if List.exists (fun t -> t.sdb != db) ts then invalid_arg "Session: another database"

(* A stale program takes no overlay: the rebuild reads the tuple sets. *)
let insert ?mult ?exo db ts rel args =
  check_borrowers db ts;
  let existing = Database.find db rel args <> None in
  let id = Database.add ?mult ?exo db rel args in
  List.iter
    (fun t ->
      (* Multiplicity bump / exogeneity OR: the witnesses are unchanged but
         objective weights (and possibly endogeneity) moved, which no
         overlay expresses. *)
      if existing then t.sstale <- true
      else
        let fresh = Eval.unique_tuple_sets (Eval.delta_insert t.sq db id) in
        if fresh <> [] then begin
          t.ssets <- t.ssets @ fresh;
          if not t.sstale then add_sets t fresh
        end)
    ts;
  id

(* A tuple in no witness leaves the tuple sets and the program as they are. *)
let delete db ts id =
  check_borrowers db ts;
  Database.remove db id;
  List.iter
    (fun t ->
      if List.exists (List.mem id) t.ssets then begin
        t.ssets <- List.filter (fun set -> not (List.mem id set)) t.ssets;
        if not t.sstale then drop_tuple t id
      end)
    ts

(* The counterfactual refresh: a fresh row [sum W - Z' <= |live| - 1] over
   the live indicators, the old slack fixed to 1 (its row goes vacuous).
   Runs on the submitting domain, before any pool starts. *)
let refresh_counterfactual t core =
  if core.cmoved then begin
    core.coverlay <- Lp.Frozen.Delta.force_one core.cz core.coverlay;
    core.cz <- Encode.counterfactual (writer t core) (List.rev_map fst core.clive);
    core.cmoved <- false
  end

(* --- Delta plumbing ------------------------------------------------------- *)

(* The overlay forces the live indicators; the counterfactual slack goes to 1. *)
let res_delta core = Lp.Frozen.Delta.force_one core.cz core.coverlay

(* [None]: t appears in no live witness.  Releases the indicators of the
   witnesses containing [t]; needs a fresh counterfactual row. *)
let rsp_delta core t =
  match List.filter (fun (_, set) -> List.mem t set) core.clive with
  | [] -> None
  | with_t ->
    let d = Lp.Frozen.Delta.fix_zero core.cz core.coverlay in
    let d =
      match Hashtbl.find_opt core.ccols.Encode.col_of_tuple t with
      | Some v -> Lp.Frozen.Delta.fix_zero v d
      | None -> d (* exogenous tuple: it never had a decision variable *)
    in
    Some (List.fold_left (fun d (wv, _) -> Lp.Frozen.Delta.release wv d) d with_t)

(* --- Solving -------------------------------------------------------------- *)

(* Certificate-aware dispatch + branch-and-bound under the delta against
   [engine] — the submitter's warm engine on the sequential paths, a
   per-domain engine over the same frozen arrays on the parallel ones, a
   fresh one on the cold one-shot path ({!cold_solve}).

   Every solve is relax-first: one warm-started LP relaxation under the
   delta.  When its optimum is integral on the integer variables it {e is}
   the ILP optimum (an integral feasible point meeting the LP lower bound)
   — the solve is settled by that root-vertex certificate with {e zero}
   branch-and-bound nodes, [certified = true].  On the paper's PTIME query
   classes the covering programs have integral relaxations, so this is the
   common case.  Otherwise branch-and-bound runs, warm-started from the
   relaxation's final basis (the root re-solve costs a handful of pivots),
   so hard instances pay essentially nothing for the probe.  [ints] are
   the integer variables of the program the delta solves, appended ones
   included.  Pivots and refactorisations are the engine's work over the
   whole question, probe included.  Values and points convert to float
   once, on the way out. *)
let run_engine_raw ?node_limit ?time_limit ints (Lp.Solvers.Engine ((module B), s)) delta =
  let t0 = Obs.Clock.now () in
  let piv0, ref0 = B.session_work s in
  let finish ?(certified = false) nodes root_lp root_integral objective solution =
    let solve_time = Obs.Clock.elapsed t0 in
    let piv1, ref1 = B.session_work s in
    let pivots = piv1 - piv0 and refactors = ref1 - ref0 in
    if certified then Obs.Counter.incr c_certified;
    ( objective,
      solution,
      { nodes; root_lp; root_integral; certified; solve_time; prep_time = 0.; pivots; refactors } )
  in
  match B.relax ~delta s with
  | `Optimal (obj, x) when B.integral_on x ints ->
    let obj = B.to_float obj in
    `Ok (finish ~certified:true 0 obj true obj (B.to_floats x))
  | `Optimal _ | `Infeasible | `Unbounded -> (
    let r = B.solve_session ?node_limit ?time_limit ~delta s in
    let root = match r.B.root_objective with Some o -> B.to_float o | None -> nan in
    match r.B.status with
    | B.Optimal ->
      `Ok
        (finish r.B.nodes root r.B.root_integral
           (B.to_float (Option.get r.B.objective))
           (B.to_floats (Option.get r.B.solution)))
    | B.Infeasible | B.Unbounded -> `Infeasible
    | B.Feasible -> `Budget (Option.map B.to_float r.B.objective)
    | B.Limit_no_solution -> `Budget None)

(* One run-log line: the solved program's feature vector, the dispatch path
   taken, and the outcome, versioned by the run-log header.  Called only
   from inside the run-log's thunk, so the feature pass runs only while the
   run-log is enabled. *)
let runlog_solve_fields ~op ~status ~path:dispatch ~fz ?stats:st ~wall () =
  let sti g = match st with Some s -> g s | None -> 0 in
  let open Obs.Json in
  [ ("op", Str op); ("status", Str status); ("path", Str dispatch) ]
  @ Lp.Struct.feature_fields (Lp.Struct.features fz)
  @ [
      ("certified", Bool (match st with Some s -> s.certified | None -> false));
      ("nodes", Int (sti (fun s -> s.nodes)));
      ("pivots", Int (sti (fun s -> s.pivots)));
      ("refactors", Int (sti (fun s -> s.refactors)));
      ("root_lp", Float (match st with Some s -> s.root_lp | None -> nan));
      ("solve_s", Float (match st with Some s -> s.solve_time | None -> wall));
      ("wall_s", Float wall);
    ]

(* Instrumentation wrapper around every engine solve: one observation per
   metrics-plane distribution and one run-log record per solve — the
   program's [Lp.Struct] feature vector alongside the dispatch path taken
   and the outcome, i.e. one line of the portfolio training corpus.  With
   nothing armed this is the raw solve plus two atomic loads. *)
let run_engine ?node_limit ?time_limit ?(op = "solve") ~ints ~fz engine delta =
  if not (Obs.Sink.recording () || Obs.Runlog.enabled ()) then
    run_engine_raw ?node_limit ?time_limit ints engine delta
  else begin
    let t0 = Obs.Clock.now () in
    let r = run_engine_raw ?node_limit ?time_limit ints engine delta in
    let wall = Obs.Clock.elapsed t0 in
    (match r with
    | `Ok (_, _, st) ->
      Obs.Metrics.observe h_solve_seconds st.solve_time;
      Obs.Metrics.observe h_solve_pivots (float_of_int st.pivots);
      Obs.Metrics.observe h_solve_nodes (float_of_int st.nodes)
    | `Infeasible | `Budget _ -> ());
    Obs.Runlog.record (fun () ->
        let status, path, st =
          match r with
          | `Ok (_, _, st) -> ("optimal", (if st.certified then "certified" else "bb"), Some st)
          | `Infeasible -> ("infeasible", "relax", None)
          | `Budget _ -> ("budget", "bb", None)
        in
        runlog_solve_fields ~op ~status ~path ~fz ?stats:st ~wall ());
    r
  end

(* The tuples a 0/1 point deletes, in column order (the column list is
   newest first). *)
let read_tuples core sol =
  List.fold_left
    (fun acc (v, tid) -> if sol.(v) > 0.5 then tid :: acc else acc)
    [] core.ccols.Encode.tuple_cols

let round_value x = int_of_float (Float.round x)

(* Submitter-side profile accounting.  Worker domains never touch the
   accumulator: parallel rankings fold their per-answer stats in here, on
   the submitting domain, after the batch has drained. *)
let note_question t = t.sacc.a_questions <- t.sacc.a_questions + 1

let note_stats t st =
  t.sacc.a_solve <- t.sacc.a_solve +. st.solve_time;
  t.sacc.a_prep <- t.sacc.a_prep +. st.prep_time

let resilience ?node_limit ?time_limit t =
  note_question t;
  match active t with
  | Error outcome -> outcome
  | Ok core -> (
    match
      run_engine ?node_limit ?time_limit ~op:"resilience" ~ints:core.cints ~fz:core.cfz
        (Lazy.force core.cengine) (res_delta core)
    with
    | `Infeasible -> No_contingency
    | `Budget incumbent -> Budget_exhausted (Option.map round_value incumbent)
    | `Ok (obj, sol, st) ->
      note_stats t st;
      Solved { res_value = round_value obj; contingency = read_tuples core sol; res_stats = st })

(* The shared-program responsibility delta-solve. *)
let rsp_shared ?node_limit ?time_limit core engine tid =
  match rsp_delta core tid with
  | None -> No_contingency
  | Some delta -> (
    match
      run_engine ?node_limit ?time_limit ~op:"responsibility" ~ints:core.cints ~fz:core.cfz
        engine delta
    with
    | `Infeasible -> No_contingency
    | `Budget incumbent -> Budget_exhausted (Option.map round_value incumbent)
    | `Ok (obj, sol, st) ->
      Solved
        { rsp_value = round_value obj; responsibility_set = read_tuples core sol; rsp_stats = st })

(* One cold question on a per-question encoding: freeze and a fresh engine,
   then one certificate-aware solve under the empty delta.  [prep_time]
   covers everything before the solve.  The per-question encoding is
   deliberately not the session's shared program: one question never
   amortises the larger shared model. *)
let cold_solve ?node_limit ?time_limit ~op ~exact ~answer (enc : Encode.encoding) =
  let tp0 = Obs.Clock.now () in
  let fz = Lp.Frozen.of_model enc.Encode.model in
  let engine = Lp.Solvers.engine ~exact fz in
  let prep_time = Obs.Clock.elapsed tp0 in
  let ints = Lp.Frozen.integer_vars fz in
  match run_engine ?node_limit ?time_limit ~op ~ints ~fz engine Lp.Frozen.Delta.empty with
  | `Infeasible -> No_contingency
  | `Budget incumbent -> Budget_exhausted (Option.map round_value incumbent)
  | `Ok (obj, sol, st) ->
    Solved (answer (round_value obj) sol { st with prep_time })

(* The LP relaxation of a per-question encoding (integrality ignored):
   freeze, one solve on a fresh engine. *)
let cold_lp ~exact (enc : Encode.encoding) =
  let (Lp.Solvers.Engine ((module B), s)) =
    Lp.Solvers.engine ~exact (Lp.Frozen.of_model enc.Encode.model)
  in
  match B.relax ~delta:Lp.Frozen.Delta.empty s with
  | `Optimal (obj, x) -> Some (B.to_float obj, B.to_floats x)
  | `Infeasible | `Unbounded -> None

let responsibility ?node_limit ?time_limit t tid =
  note_question t;
  match active t with
  | Error outcome -> outcome
  | Ok core ->
    refresh_counterfactual t core;
    let outcome = rsp_shared ?node_limit ?time_limit core (Lazy.force core.cengine) tid in
    (match outcome with
    | Solved a -> note_stats t a.rsp_stats
    | Query_false | No_contingency | Budget_exhausted _ -> ());
    outcome

(* Endogenous witness tuples, in database order — exactly the tuples a
   ranking solves for.  Everything else is skipped without a solve
   (exogenous tuples cannot be explanations, and a tuple outside every
   witness cannot be counterfactual). *)
let candidates core db =
  Database.tuples db
  |> List.filter_map (fun info ->
         let tid = info.Database.id in
         if Hashtbl.mem core.ccols.Encode.col_of_tuple tid then Some tid else None)

let ranking ?node_limit ?time_limit ?(jobs = 1) t =
  (* jobs = 1 still routes through the pool (its sequential fast path), so
     the telemetry a ranking emits has the same shape at every job count. *)
  match active t with
  | Error _ -> []
  | Ok core ->
    refresh_counterfactual t core;
    let cands = Array.of_list (candidates core t.sdb) in
    let tasks = Array.length cands in
    if tasks = 0 then []
    else begin
      (* Each participating domain opens its own warm engine against the
         shared frozen arrays and drains a chunk of per-tuple delta-solves;
         the session's warm engine is not built. *)
      let outcomes =
        Lp.Pool.with_pool ~jobs (fun pool ->
            Lp.Pool.run_init pool
              ~init:(fun () -> Lp.Solvers.engine ~exact:t.sexact ~kernel:t.sbasis core.cfz)
              ~tasks
              (fun engine i -> rsp_shared ?node_limit ?time_limit core engine cands.(i)))
      in
      (* Accounting on the submitter: each candidate counts as one
         question, and a solved one adds its solve/prep time. *)
      List.combine (Array.to_list cands) (Array.to_list outcomes)
      |> List.filter_map (fun (tid, outcome) ->
             note_question t;
             match outcome with
             | Solved a ->
               note_stats t a.rsp_stats;
               Some (tid, a.rsp_value, 1.0 /. (1.0 +. float_of_int a.rsp_value))
             | Query_false | No_contingency | Budget_exhausted _ -> None)
      |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)
    end

(* --- Solution enumeration -------------------------------------------------- *)

(* The pin row's left-hand side: every weighted tuple variable of the
   program (witness indicators and the slacks carry no weight), which by
   construction is exactly the objective — so [sum w_t X(t) <= OPT]
   confines every later solve to the optimal face.  A deleted tuple is
   skipped: the overlay fixes its variable to 0. *)
let enum_pin_expr t core =
  Enumerate.pin_expr
    (List.filter_map
       (fun (v, tid) ->
         if Database.mem t.sdb tid then
           Some (v, Problem.weight t.ssem (Database.tuple t.sdb tid))
         else None)
       core.ccols.Encode.tuple_cols)

(* One warm ILP solve under the delta, shaped for [Enumerate.drive]: the
   cut chain grows monotonically on one engine, so each re-solve absorbs
   only the newest row and restarts from the previous optimal basis. *)
let enum_run ?node_limit core engine time_left delta =
  let time_limit =
    match time_left with Some l -> Some (Float.max l 0.) | None -> None
  in
  match
    run_engine ?node_limit ?time_limit ~op:"enumerate" ~ints:core.cints ~fz:core.cfz engine delta
  with
  | `Infeasible -> `Infeasible
  | `Budget _ -> `Budget
  | `Ok (obj, sol, st) ->
    `Ok (round_value obj, read_tuples core sol, (st.nodes, st.pivots, st.refactors))

let var_of_tuple core tid = Hashtbl.find_opt core.ccols.Encode.col_of_tuple tid

(* Parallel enumeration by disjoint seed-split on the first optimum
   S0 = {s_1 < ... < s_k} (Lawler/Murty partition): subspace i keeps
   s_1..s_{i-1}, drops s_i — bound fixes, not cuts.  Any other optimal set
   is no superset of S0 (equal weight, weights >= 1), so it misses some
   s_i and lands in exactly the subspace of the first one it misses; the
   subspaces are pairwise disjoint and none contains S0 itself.  Each
   subspace runs its own pinned cut chain on a fresh warm engine over the
   shared frozen arrays; the merge is concatenation + canonical sort, so
   an exhausted enumeration is identical at every job count. *)
let enum_par ?node_limit ?time_limit ?cap ~jobs t core ~pin ~cut base =
  let t0 = Obs.Clock.now () in
  match enum_run ?node_limit core (Lazy.force core.cengine) time_limit base with
  | `Infeasible -> `Infeasible
  | `Budget -> `Budget
  | `Ok (opt, s0, first) ->
    let s0 = List.sort compare s0 in
    let seeds = Array.of_list s0 in
    let fix tid f d = match var_of_tuple core tid with Some v -> f v d | None -> d in
    (* [s0 = []] (OPT = 0) leaves no subspace: the family is [{[]}]. *)
    let results =
      if seeds = [||] then [||]
      else
        Lp.Pool.with_pool ~jobs (fun pool ->
            Lp.Pool.run pool ~tasks:(Array.length seeds) (fun i ->
                let engine = Lp.Solvers.engine ~exact:t.sexact ~kernel:t.sbasis core.cfz in
                let sub = ref base in
                for j = 0 to i - 1 do
                  sub := fix seeds.(j) Lp.Frozen.Delta.force_one !sub
                done;
                sub := fix seeds.(i) Lp.Frozen.Delta.fix_zero !sub;
                Enumerate.collect ?cap ?time_limit ~t0 ~opt ~cut
                  ~run:(enum_run ?node_limit core engine)
                  ~seen:[] (pin opt !sub)))
    in
    `Family (Enumerate.family ~t0 ~opt ~s0 ~first ~s0_cuts:0 (Array.to_list results))

let enum_question ?node_limit ?time_limit ?cap ~jobs t core base =
  let jobs = if jobs = 0 then Lp.Pool.default_jobs () else jobs in
  Obs.Trace.with_span "session.enumerate" (fun () ->
      let pin opt d =
        Lp.Frozen.Delta.append_row Lp.Model.Leq opt (enum_pin_expr t core) d
      in
      let cut = Enumerate.no_good (var_of_tuple core) in
      let result =
        if jobs <= 1 then
          Enumerate.drive ?cap ?time_limit ~pin ~cut
            ~run:(enum_run ?node_limit core (Lazy.force core.cengine))
            base
        else enum_par ?node_limit ?time_limit ?cap ~jobs t core ~pin ~cut base
      in
      match result with
      | `Infeasible -> No_contingency
      | `Budget -> Budget_exhausted None
      | `Family fam ->
        Obs.Counter.add c_enum_cuts fam.Enumerate.fstats.Enumerate.cuts;
        Obs.Counter.add c_enum_solutions (List.length fam.Enumerate.sets);
        if fam.Enumerate.exhausted then Obs.Counter.incr c_enum_exhausted;
        t.sacc.a_solve <- t.sacc.a_solve +. fam.Enumerate.fstats.Enumerate.time;
        Solved fam)

let enumerate_resilience ?node_limit ?time_limit ?(jobs = 1) ?cap t =
  note_question t;
  match active t with
  | Error outcome -> outcome
  | Ok core ->
    enum_question ?node_limit ?time_limit ?cap ~jobs t core (res_delta core)

let enumerate_responsibility ?node_limit ?time_limit ?(jobs = 1) ?cap t tid =
  note_question t;
  match active t with
  | Error outcome -> outcome
  | Ok core -> (
    refresh_counterfactual t core;
    match rsp_delta core tid with
    | None -> No_contingency
    | Some base -> enum_question ?node_limit ?time_limit ?cap ~jobs t core base)

let profile t =
  {
    witnesses_s = t.sacc.a_witnesses;
    encode_s = t.sacc.a_encode;
    prep_s = t.sacc.a_prep;
    solve_s = t.sacc.a_solve;
    questions = t.sacc.a_questions;
  }
