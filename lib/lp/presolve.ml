type summary = {
  rows_removed : int;
  vars_fixed : int;
  bounds_stripped : int;
  passes : int;
}

type vmap = {
  orig_nvars : int;
  new_of_orig : int array;  (* -1 = eliminated *)
  fixed_value : int array;  (* value of eliminated variables *)
  obj_offset : int;
  summary : summary;
}

type result = Infeasible | Unbounded | Reduced of Frozen.t * vmap

let obj_offset vm = vm.obj_offset
let summary vm = vm.summary

let lift vm ~of_int x =
  Array.init vm.orig_nvars (fun v ->
      let j = vm.new_of_orig.(v) in
      if j >= 0 then x.(j) else of_int vm.fixed_value.(v))

(* Integer division rounding towards -inf / +inf; [b > 0]. *)
let floor_div a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let ceil_div a b = if a >= 0 then (a + b - 1) / b else -(-a / b)

type row = { expr : (int * int) list; sense : Model.sense; rhs : int }

exception Found_infeasible
exception Found_unbounded

(* Per-rule reduction counters (dropped unless a trace sink is installed);
   aggregate totals mirror the per-model {!summary}. *)
let c_passes = Obs.Counter.create "presolve.passes"
let c_rows_removed = Obs.Counter.create "presolve.rows_removed"
let c_vars_fixed = Obs.Counter.create "presolve.vars_fixed"
let c_bounds_tightened = Obs.Counter.create "presolve.bounds_tightened"
let c_bounds_stripped = Obs.Counter.create "presolve.bounds_stripped"
let c_empty_row_drops = Obs.Counter.create "presolve.rule.empty_row"
let c_singleton_drops = Obs.Counter.create "presolve.rule.singleton"
let c_trivial_drops = Obs.Counter.create "presolve.rule.trivial_row"
let c_dedup_drops = Obs.Counter.create "presolve.rule.dedup"
let c_dominated_drops = Obs.Counter.create "presolve.rule.dominated"
let c_empty_col_fixes = Obs.Counter.create "presolve.rule.empty_column"

let presolve_body ?(strip_bounds = true) m =
  let n = Frozen.num_vars m in
  let upper = Array.init n (fun v -> Frozen.upper m v) in
  let fixed = Array.make n None in
  let rows =
    Array.init (Frozen.num_rows m) (fun i ->
        Some { expr = Frozen.row_expr m i; sense = Frozen.row_sense m i; rhs = Frozen.row_rhs m i })
  in
  let rows_removed = ref 0 in
  let vars_fixed = ref 0 in
  let bounds_stripped = ref 0 in
  let passes = ref 0 in
  let changed = ref true in
  let drop i =
    if rows.(i) <> None then begin
      rows.(i) <- None;
      incr rows_removed;
      Obs.Counter.incr c_rows_removed;
      changed := true
    end
  in
  let fix v value =
    match fixed.(v) with
    | Some k -> if k <> value then raise Found_infeasible
    | None ->
      if value < 0 then raise Found_infeasible;
      (match upper.(v) with Some u when value > u -> raise Found_infeasible | _ -> ());
      fixed.(v) <- Some value;
      incr vars_fixed;
      Obs.Counter.incr c_vars_fixed;
      changed := true
  in
  let tighten_upper v u =
    if u < 0 then raise Found_infeasible;
    let tighter = match upper.(v) with Some cur -> u < cur | None -> true in
    if tighter then begin
      upper.(v) <- Some u;
      Obs.Counter.incr c_bounds_tightened;
      changed := true
    end;
    if u = 0 then fix v 0
  in
  (* Activity bounds under [0, upper]; [None] is the relevant infinity. *)
  let min_act expr =
    List.fold_left
      (fun acc (v, c) ->
        match acc with
        | None -> None
        | Some a ->
          if c >= 0 then Some a
          else (match upper.(v) with Some u -> Some (a + (c * u)) | None -> None))
      (Some 0) expr
  in
  let max_act expr =
    List.fold_left
      (fun acc (v, c) ->
        match acc with
        | None -> None
        | Some a ->
          if c <= 0 then Some a
          else (match upper.(v) with Some u -> Some (a + (c * u)) | None -> None))
      (Some 0) expr
  in
  (* An exact bound can be applied to any variable; a rounded one only to an
     integer variable (rounding would cut feasible fractional points off a
     continuous one). *)
  let exact_or_integer v num den = num mod den = 0 || Frozen.is_integer m v in
  let handle_singleton i v c rhs =
    if c > 0 then begin
      match rows.(i) with
      | None -> ()
      | Some r -> (
        match r.sense with
        | Model.Geq ->
          if rhs <= 0 then drop i
          else begin
            (match upper.(v) with
            | Some u ->
              if c * u < rhs then raise Found_infeasible
              else if ceil_div rhs c >= u && exact_or_integer v rhs c then begin
                fix v u;
                drop i
              end
            | None -> ())
            (* a lower bound strictly inside (0, upper) has no
               representation in the model; the row stays *)
          end
        | Model.Leq ->
          if rhs < 0 then raise Found_infeasible
          else if exact_or_integer v rhs c then begin
            tighten_upper v (floor_div rhs c);
            drop i
          end
        | Model.Eq ->
          if rhs mod c = 0 then begin
            fix v (rhs / c);
            drop i
          end
          else if Frozen.is_integer m v then raise Found_infeasible
          (* continuous with a fractional value: keep the row *))
    end
    else begin
      (* c < 0: mirror of the above *)
      let a = -c in
      match rows.(i) with
      | None -> ()
      | Some r -> (
        match r.sense with
        | Model.Geq ->
          (* -a x >= rhs  <=>  x <= -rhs/a; the left side is at most 0 *)
          if rhs > 0 then raise Found_infeasible
          else if exact_or_integer v (-rhs) a then begin
            tighten_upper v (floor_div (-rhs) a);
            drop i
          end
        | Model.Leq ->
          (* -a x <= rhs  <=>  x >= -rhs/a *)
          if rhs >= 0 then drop i
          else (
            match upper.(v) with
            | Some u ->
              if a * u < -rhs then raise Found_infeasible
              else if ceil_div (-rhs) a >= u && exact_or_integer v (-rhs) a then begin
                fix v u;
                drop i
              end
            | None -> ())
        | Model.Eq ->
          if rhs mod c = 0 then begin
            fix v (rhs / c);
            drop i
          end
          else if Frozen.is_integer m v then raise Found_infeasible)
    end
  in
  let scan_rows () =
    for i = 0 to Array.length rows - 1 do
      match rows.(i) with
      | None -> ()
      | Some r ->
        (* substitute fixed variables *)
        let rhs = ref r.rhs in
        let expr =
          List.filter
            (fun (v, c) ->
              match fixed.(v) with
              | Some k ->
                rhs := !rhs - (c * k);
                false
              | None -> true)
            r.expr
        in
        let r = { r with expr; rhs = !rhs } in
        rows.(i) <- Some r;
        (match r.expr with
        | [] ->
          let ok =
            match r.sense with
            | Model.Geq -> 0 >= r.rhs
            | Model.Leq -> 0 <= r.rhs
            | Model.Eq -> 0 = r.rhs
          in
          if ok then begin
            Obs.Counter.incr c_empty_row_drops;
            drop i
          end
          else raise Found_infeasible
        | [ (v, c) ] ->
          let before = !rows_removed in
          handle_singleton i v c r.rhs;
          Obs.Counter.add c_singleton_drops (!rows_removed - before)
        | _ -> (
          (* static infeasibility / redundancy from the bounds *)
          let mi = min_act r.expr and ma = max_act r.expr in
          let infeasible =
            match r.sense with
            | Model.Geq -> ( match ma with Some a -> a < r.rhs | None -> false)
            | Model.Leq -> ( match mi with Some a -> a > r.rhs | None -> false)
            | Model.Eq ->
              (match ma with Some a -> a < r.rhs | None -> false)
              || (match mi with Some a -> a > r.rhs | None -> false)
          in
          if infeasible then raise Found_infeasible;
          let trivial =
            match r.sense with
            | Model.Geq -> ( match mi with Some a -> a >= r.rhs | None -> false)
            | Model.Leq -> ( match ma with Some a -> a <= r.rhs | None -> false)
            | Model.Eq -> (
              match (mi, ma) with Some a, Some b -> a = r.rhs && b = r.rhs | _ -> false)
          in
          if trivial then begin
            Obs.Counter.incr c_trivial_drops;
            drop i
          end
          else begin
            (* bound propagation on integer columns: in a >= row a negative
               column is capped by what the rest of the row can still
               deliver; in a <= row a positive column is. *)
            match r.sense with
            | Model.Geq -> (
              match ma with
              | None -> ()
              | Some a ->
                List.iter
                  (fun (v, c) ->
                    if c < 0 && Frozen.is_integer m v && fixed.(v) = None then
                      tighten_upper v (floor_div (a - r.rhs) (-c)))
                  r.expr)
            | Model.Leq -> (
              match mi with
              | None -> ()
              | Some a ->
                List.iter
                  (fun (v, c) ->
                    if c > 0 && Frozen.is_integer m v && fixed.(v) = None then
                      tighten_upper v (floor_div (r.rhs - a) c))
                  r.expr)
            | Model.Eq -> ()
          end))
    done
  in
  (* Collapse duplicate / parallel rows to the tightest representative per
     (left-hand side, sense); conflicting equalities are infeasible. *)
  let dedup_rows () =
    let best : ((int * int) list * Model.sense, int) Hashtbl.t = Hashtbl.create 64 in
    for i = 0 to Array.length rows - 1 do
      match rows.(i) with
      | None -> ()
      | Some r -> (
        let key = (r.expr, r.sense) in
        match Hashtbl.find_opt best key with
        | None -> Hashtbl.add best key i
        | Some j -> (
          let rj = match rows.(j) with Some rj -> rj | None -> assert false in
          match r.sense with
          | Model.Geq -> if r.rhs > rj.rhs then (drop j; Hashtbl.replace best key i) else drop i
          | Model.Leq -> if r.rhs < rj.rhs then (drop j; Hashtbl.replace best key i) else drop i
          | Model.Eq -> if r.rhs <> rj.rhs then raise Found_infeasible else drop i))
    done
  in
  (* Drop unit-coefficient >= rows whose support contains another such row
     with an equal-or-larger right-hand side. *)
  let drop_dominated () =
    let covering = ref [] in
    for i = Array.length rows - 1 downto 0 do
      match rows.(i) with
      | Some r
        when r.sense = Model.Geq && r.expr <> [] && List.for_all (fun (_, c) -> c = 1) r.expr
        -> covering := (i, List.map fst r.expr, r.rhs) :: !covering
      | Some _ | None -> ()
    done;
    (* smallest supports first: only already-kept smaller rows can dominate *)
    let by_size =
      List.stable_sort (fun (_, a, _) (_, b, _) -> compare (List.length a) (List.length b))
        !covering
    in
    let rows_of_var = Hashtbl.create 64 in
    let rec subset xs ys =
      match (xs, ys) with
      | [], _ -> true
      | _ :: _, [] -> false
      | x :: xs', y :: ys' ->
        if x = y then subset xs' ys' else if x > y then subset xs ys' else false
    in
    List.iter
      (fun (i, vars, rhs) ->
        let candidates =
          List.concat_map (fun v -> try Hashtbl.find rows_of_var v with Not_found -> []) vars
          |> List.sort_uniq compare
        in
        let dominated =
          List.exists
            (fun j ->
              match rows.(j) with
              | Some rj -> rj.rhs >= rhs && subset (List.map fst rj.expr) vars
              | None -> false)
            (List.filter (fun j -> j <> i) candidates)
        in
        if dominated then drop i
        else List.iter (fun v -> Hashtbl.replace rows_of_var v (i :: (try Hashtbl.find rows_of_var v with Not_found -> []))) vars)
      by_size
  in
  let fix_empty_columns () =
    let occupied = Array.make n false in
    Array.iter
      (function
        | Some r -> List.iter (fun (v, _) -> occupied.(v) <- true) r.expr
        | None -> ())
      rows;
    for v = 0 to n - 1 do
      if fixed.(v) = None && not occupied.(v) then begin
        let c = Frozen.objective m v in
        if c >= 0 then fix v 0
        else
          match upper.(v) with Some u -> fix v u | None -> raise Found_unbounded
      end
    done
  in
  match
    while !changed && !passes < 10 do
      changed := false;
      incr passes;
      Obs.Counter.incr c_passes;
      scan_rows ();
      let r0 = !rows_removed in
      dedup_rows ();
      Obs.Counter.add c_dedup_drops (!rows_removed - r0);
      let r1 = !rows_removed in
      drop_dominated ();
      Obs.Counter.add c_dominated_drops (!rows_removed - r1);
      let f0 = !vars_fixed in
      fix_empty_columns ();
      Obs.Counter.add c_empty_col_fixes (!vars_fixed - f0)
    done
  with
  | exception Found_infeasible -> Infeasible
  | exception Found_unbounded -> Unbounded
  | () ->
    (* Redundant upper bounds: non-negative cost, and every row containing
       the variable either loosens as it shrinks or is satisfied by the
       variable at its bound alone (all-non-negative >= row with
       c*u >= rhs) — then any optimum truncates under the bound.  Binary
       bounds only for integer variables, to preserve 0/1 branching. *)
    if strip_bounds then begin
      let rows_of_var = Array.make n [] in
      Array.iter
        (function
          | Some r -> List.iter (fun (v, c) -> rows_of_var.(v) <- (r, c) :: rows_of_var.(v)) r.expr
          | None -> ())
        rows;
      (* Strictly positive cost: then the solver's optimal point itself never
         exceeds the bound (shrinking the variable would improve the
         objective), so lifted solutions stay feasible in the original
         model, not just equal in value. *)
      for v = 0 to n - 1 do
        match (fixed.(v), upper.(v)) with
        | None, Some u
          when Frozen.objective m v > 0 && ((not (Frozen.is_integer m v)) || u = 1) ->
          let benign (r, c) =
            match (r.sense, c > 0) with
            | Model.Geq, true ->
              c * u >= r.rhs && List.for_all (fun (_, c') -> c' >= 0) r.expr
            | Model.Geq, false -> true
            | Model.Leq, true -> true
            | Model.Leq, false -> false
            | Model.Eq, _ -> false
          in
          if List.for_all benign rows_of_var.(v) then begin
            upper.(v) <- None;
            incr bounds_stripped;
            Obs.Counter.incr c_bounds_stripped
          end
        | _ -> ()
      done
    end;
    (* Materialise the reduced program directly as a frozen form — the rows
       are already in normal form (substitution preserves the sort order,
       and the kept-variable renumbering is monotone). *)
    let new_of_orig = Array.make n (-1) in
    let fixed_value = Array.make n 0 in
    let obj_offset = ref 0 in
    let nkept = ref 0 in
    for v = 0 to n - 1 do
      match fixed.(v) with
      | Some k ->
        fixed_value.(v) <- k;
        obj_offset := !obj_offset + (Frozen.objective m v * k)
      | None ->
        new_of_orig.(v) <- !nkept;
        incr nkept
    done;
    let names = Array.make !nkept "" in
    let integer = Array.make !nkept false in
    let r_upper = Array.make !nkept None in
    let obj = Array.make !nkept 0 in
    for v = 0 to n - 1 do
      let v' = new_of_orig.(v) in
      if v' >= 0 then begin
        names.(v') <- Frozen.var_name m v;
        integer.(v') <- Frozen.is_integer m v;
        r_upper.(v') <- upper.(v);
        obj.(v') <- Frozen.objective m v
      end
    done;
    let kept_rows =
      Array.to_list rows
      |> List.filter_map
           (Option.map (fun r ->
                (r.sense, r.rhs, List.map (fun (v, c) -> (new_of_orig.(v), c)) r.expr)))
      |> Array.of_list
    in
    let reduced = Frozen.make ~names ~integer ~upper:r_upper ~obj ~rows:kept_rows in
    let vm =
      {
        orig_nvars = n;
        new_of_orig;
        fixed_value;
        obj_offset = !obj_offset;
        summary =
          {
            rows_removed = !rows_removed;
            vars_fixed = !vars_fixed;
            bounds_stripped = !bounds_stripped;
            passes = !passes;
          };
      }
    in
    Reduced (reduced, vm)

let presolve ?strip_bounds m =
  let span0 = Obs.Trace.begin_ () in
  let r = presolve_body ?strip_bounds m in
  Obs.Trace.end_ span0 "presolve";
  r
