module type S = sig
  type elt

  val of_int : int -> elt
  val to_float : elt -> float
  val to_floats : elt array -> float array
  val integral_on : elt array -> Model.var list -> bool

  type status = Optimal | Feasible | Infeasible | Unbounded | Limit_no_solution

  type result = {
    status : status;
    objective : elt option;
    solution : elt array option;
    nodes : int;
    root_objective : elt option;
    root_integral : bool;
    pivots : int;
    refactors : int;
  }

  type session

  val create_session : ?kernel:Basis.choice -> Frozen.t -> session

  val solve_session :
    ?node_limit:int -> ?time_limit:float -> ?delta:Frozen.Delta.t -> session -> result

  val relax :
    ?delta:Frozen.Delta.t -> session -> [ `Optimal of elt * elt array | `Infeasible | `Unbounded ]

  val solve_frozen :
    ?node_limit:int -> ?time_limit:float -> ?delta:Frozen.Delta.t -> Frozen.t -> result

  val session_work : session -> int * int
end

(* The build also compiles this functor's body on its own, with F the
   float field and {!Float_simplex} as [Lp], as the unit {!Float_bb}
   (lib/lp/dune): the body may not use anything defined at this file's top
   level. *)
module Make (F : Numeric.Field.S) = struct
  (* Shared by every instance of this body, float unit and exact functor
     alike (creation is idempotent by name); every bump is dropped unless a
     trace sink is installed. *)
  let c_nodes = Obs.Counter.create "bb.nodes"
  let c_pruned = Obs.Counter.create "bb.pruned"
  let c_infeasible_nodes = Obs.Counter.create "bb.infeasible_nodes"
  let c_integral_leaves = Obs.Counter.create "bb.integral_leaves"
  let c_incumbents = Obs.Counter.create "bb.incumbents"
  let c_budget_hits = Obs.Counter.create "bb.budget_hits"
  let c_max_depth = Obs.Counter.create "bb.max_depth"

  module Lp = Simplex.Make (F)

  type elt = F.t

  let of_int = F.of_int
  let to_float = F.to_float
  let to_floats = F.to_floats
  let integral_on = Lp.integral_on

  type status = Optimal | Feasible | Infeasible | Unbounded | Limit_no_solution

  type result = {
    status : status;
    objective : F.t option;
    solution : F.t array option;
    nodes : int;
    root_objective : F.t option;
    root_integral : bool;
    pivots : int;
    refactors : int;
  }

  (* When the objective touches only integer variables (and has integer
     coefficients, always true for Model), any feasible integral point has an
     integral objective, so a fractional LP bound can be rounded up. *)
  let strengthen pure_int_obj bound =
    if pure_int_obj && not (F.is_integral bound) then
      F.of_int (int_of_float (Float.ceil (F.to_float bound -. 1e-6)))
    else bound

  (* Pick the integer variable whose LP value is farthest from an integer. *)
  let most_fractional x int_vars =
    let best = ref None in
    let best_dist = ref (-1.0) in
    List.iter
      (fun v ->
        if not (F.is_integral x.(v)) then begin
          let f = F.to_float x.(v) in
          let dist = Float.abs (f -. Float.round f) in
          if dist > !best_dist then begin
            best := Some v;
            best_dist := dist
          end
        end)
      int_vars;
    !best

  (* ----- Frozen sessions -------------------------------------------------
     A branch-and-bound session owns one warm-startable dual-simplex
     session over a frozen program and keeps it across calls.  Branching is
     expressed as delta extension, so within one tree every node after the
     root re-solves from the parent's basis — and across calls each solve's
     root starts from the previous call's final basis, which is what makes
     a responsibility batch (many near-identical ILPs against one frozen
     core) cheap. *)

  type session = Lp.session

  let create_session = Lp.create_session

  let relax ?(delta = Frozen.Delta.empty) sess =
    match Lp.session_solve sess delta with
    | Lp.Optimal { objective; solution } -> `Optimal (objective, solution)
    | Lp.Infeasible -> `Infeasible

  (* Metadata of the program the session has absorbed, shared by every
     node of a solve: binary check, integer variables, objective purity. *)
  let session_meta sess =
    let nvars = Lp.session_num_vars sess in
    let int_vars = ref [] in
    for v = nvars - 1 downto 0 do
      if Lp.session_is_integer sess v then begin
        (match Lp.session_upper sess v with
        | None -> ()
        | Some u ->
          if F.compare u F.one <> 0 then
            invalid_arg "Branch_bound.solve_session: integer variables must be binary");
        int_vars := v :: !int_vars
      end
    done;
    let pure_int_obj =
      let ok = ref true in
      for v = 0 to nvars - 1 do
        if F.sign (Lp.session_objective sess v) <> 0 && not (Lp.session_is_integer sess v) then
          ok := false
      done;
      !ok && !int_vars <> []
    in
    (nvars, !int_vars, pure_int_obj)

  let objective_at sess nvars x =
    let acc = ref F.zero in
    for v = 0 to nvars - 1 do
      let c = Lp.session_objective sess v in
      if F.sign c <> 0 then acc := F.add !acc (F.mul c x.(v))
    done;
    !acc

  let status_of ~incumbent ~hit_limit =
    match (incumbent, hit_limit) with
    | Some _, false -> Optimal
    | Some _, true -> Feasible
    | None, true -> Limit_no_solution
    | None, false -> Infeasible

  let session_work sess = (Lp.session_pivots sess, Lp.session_refactors sess)

  (* One depth-first search over deltas against the session's warm LP
     engine: children are pushed fix-0 first, a node is pruned when its
     (strengthened) bound cannot beat the incumbent, and every branching
     node offers a rounded point as a candidate incumbent.  The first solved
     node is the root. *)
  let solve_session ?node_limit ?time_limit ?(delta = Frozen.Delta.empty) sess =
    Lp.session_absorb sess delta;
    let nvars, int_vars, pure_int_obj = session_meta sess in
    let span0 = Obs.Trace.begin_ () in
    let piv0, ref0 = session_work sess in
    let t0 = Obs.Clock.now () in
    let timed_out () =
      match time_limit with Some limit -> Obs.Clock.elapsed t0 > limit | None -> false
    in
    let nodes = ref 0 in
    let tick () =
      match node_limit with
      | Some l when !nodes >= l -> false
      | Some _ | None ->
        incr nodes;
        true
    in
    let incumbent_obj = ref None in
    let incumbent_sol = ref None in
    let offer obj sol =
      match !incumbent_obj with
      | Some inc when F.compare obj inc >= 0 -> ()
      | _ ->
        Obs.Counter.incr c_incumbents;
        incumbent_obj := Some obj;
        incumbent_sol := Some sol
    in
    let root_objective = ref None in
    let root_integral = ref false in
    (* Primal heuristic: ceil every positive integer variable (in covering
       programs this is always feasible), validated against the base delta —
       branching fixes are search artifacts a root-feasible point need not
       respect, and rounding preserves 0/1 fixes anyway. *)
    let try_rounding solution =
      let x = Array.copy solution in
      List.iter
        (fun v -> x.(v) <- (if F.to_float solution.(v) > 1e-6 then F.one else F.zero))
        int_vars;
      if Lp.session_feasible sess delta (Array.map F.to_float x) then
        offer (objective_at sess nvars x) x
    in
    let hit_limit = ref false in
    let stack = ref [ (delta, 0) ] in
    let continue = ref true in
    while !continue do
      match !stack with
      | [] -> continue := false
      | (node_delta, depth) :: rest ->
        stack := rest;
        if timed_out () || not (tick ()) then begin
          hit_limit := true;
          Obs.Counter.incr c_budget_hits;
          continue := false
        end
        else begin
          Obs.Counter.incr c_nodes;
          Obs.Counter.record_max c_max_depth depth;
          match Lp.session_solve sess node_delta with
          | Lp.Infeasible -> Obs.Counter.incr c_infeasible_nodes
          | Lp.Optimal { objective; solution } ->
            if !root_objective = None then begin
              root_objective := Some objective;
              root_integral := Lp.integral_on solution int_vars
            end;
            let bound = strengthen pure_int_obj objective in
            let pruned =
              match !incumbent_obj with Some inc -> F.compare bound inc >= 0 | None -> false
            in
            if pruned then Obs.Counter.incr c_pruned
            else begin
              match most_fractional solution int_vars with
              | None ->
                Obs.Counter.incr c_integral_leaves;
                offer objective solution
              | Some v ->
                try_rounding solution;
                stack :=
                  (Frozen.Delta.fix v 0 node_delta, depth + 1)
                  :: (Frozen.Delta.fix v 1 node_delta, depth + 1)
                  :: !stack
            end
        end
    done;
    let piv1, ref1 = session_work sess in
    Obs.Trace.end_ span0 "bb.solve";
    {
      status = status_of ~incumbent:!incumbent_obj ~hit_limit:!hit_limit;
      objective = !incumbent_obj;
      solution = !incumbent_sol;
      nodes = !nodes;
      root_objective = !root_objective;
      root_integral = !root_integral;
      pivots = piv1 - piv0;
      refactors = ref1 - ref0;
    }

  let solve_frozen ?node_limit ?time_limit ?delta fz =
    solve_session ?node_limit ?time_limit ?delta (create_session fz)
end
