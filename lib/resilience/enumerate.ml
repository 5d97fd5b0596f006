open Relalg

(* Solution enumeration by no-good cuts (DESIGN.md §13).

   After the first ILP optimum OPT with optimal set S, two kinds of rows are
   appended to the program's delta:

   - an optimal-cost pin  [sum_t w_t X[t] <= OPT]  over every weighted tuple
     variable, so every later solve is confined to the optimal face; and
   - one no-good cut  [sum_{t in S} X[t] <= |S| - 1]  per emitted set.

   Because every weight is >= 1, two distinct minimum-weight contingency
   sets are never subsets of one another (a strict superset costs strictly
   more), so under the pin each cut removes exactly its own set from the
   remaining family: any other optimal set misses at least one member of S
   and satisfies the cut strictly.  The loop therefore emits each optimal
   set exactly once and terminates with an infeasible program precisely when
   the family is exhausted. *)

type stats = {
  cuts : int;  (** No-good cuts appended. *)
  solves : int;  (** ILP solves, the first optimum included. *)
  nodes : int;
  first_pivots : int;  (** Pivots of the first (cut-free) solve. *)
  cut_pivots : int;  (** Pivots summed over the cut re-solves. *)
  refactors : int;
  time : float;
}

type family = {
  opt : int;
  sets : Database.tuple_id list list;
  exhausted : bool;
  fstats : stats;
}

type criticality = {
  crit_tuple : Database.tuple_id;
  crit_count : int;
  crit_total : int;
  crit_exact : Numeric.Rat.t;
  crit_float : float;
}

type outcome = Family of family | Query_false | No_contingency | Budget

(* --- Orderings ----------------------------------------------------------- *)

let canonical sets = List.sort_uniq compare (List.map (List.sort compare) sets)

let take n sets =
  if n < 0 then sets else List.filteri (fun i _ -> i < n) sets

(* Symmetric-difference cardinality of two sorted lists. *)
let symdiff a b =
  let rec go n a b =
    match (a, b) with
    | [], rest | rest, [] -> n + List.length rest
    | x :: a', y :: b' ->
      let c = compare x y in
      if c = 0 then go n a' b'
      else if c < 0 then go (n + 1) a' b
      else go (n + 1) a b'
  in
  go 0 a b

(* Greedy max-min-diversity reordering: keep the canonical head, then
   repeatedly pick the set whose minimum symmetric difference to everything
   already emitted is largest (ties broken by canonical order), so a
   truncated prefix spreads over the family instead of clustering. *)
let diverse sets =
  match sets with
  | [] | [ _ ] -> sets
  | first :: rest ->
    let rec pick acc picked remaining =
      match remaining with
      | [] -> List.rev acc
      | _ ->
        let score s = List.fold_left (fun m p -> min m (symdiff s p)) max_int picked in
        let best =
          List.fold_left
            (fun best s ->
              match best with
              | None -> Some (s, score s)
              | Some (_, bs) ->
                let ss = score s in
                if ss > bs then Some (s, ss) else best)
            None remaining
        in
        let b = fst (Option.get best) in
        pick (b :: acc) (b :: picked) (List.filter (fun s -> s <> b) remaining)
    in
    pick [ first ] [ first ] rest

(* --- Criticality --------------------------------------------------------- *)

let criticality fam =
  let total = List.length fam.sets in
  if total = 0 then []
  else begin
    let counts = Hashtbl.create 16 in
    List.iter
      (List.iter (fun t ->
           Hashtbl.replace counts t
             (1 + Option.value ~default:0 (Hashtbl.find_opt counts t))))
      fam.sets;
    Hashtbl.fold (fun t c acc -> (t, c) :: acc) counts []
    |> List.map (fun (t, c) ->
           {
             crit_tuple = t;
             crit_count = c;
             crit_total = total;
             crit_exact = Numeric.Rat.of_ints c total;
             crit_float = float_of_int c /. float_of_int total;
           })
    |> List.sort (fun a b ->
           match compare b.crit_count a.crit_count with
           | 0 -> compare a.crit_tuple b.crit_tuple
           | n -> n)
  end

(* --- Cut construction ---------------------------------------------------- *)

let no_good var_of_tuple set delta =
  let vars = List.sort compare (List.filter_map var_of_tuple set) in
  if vars = [] then invalid_arg "Enumerate.no_good: empty cut";
  Lp.Frozen.Delta.append_row Lp.Model.Leq
    (List.length vars - 1)
    (List.map (fun v -> (v, 1)) vars)
    delta

let pin_expr weighted_vars =
  List.sort (fun (a, _) (b, _) -> compare a b)
    (List.filter (fun (_, w) -> w <> 0) weighted_vars)

(* --- The enumeration loop ------------------------------------------------ *)

(* Gather every remaining optimal set reachable from the (already pinned)
   delta [d]: solve, record, cut, repeat.  [seen] are sets already emitted
   upstream — they count toward [cap] and guard against a solver ever
   returning a cut-off point again (defensive: that would loop forever).
   The overall [time_limit] is measured from [t0] and the remainder is
   passed to each solve, so a deadline bounds the whole chain, not each
   link.  Returns the new sets (unsorted), whether the family was proven
   exhausted (the final solve came back infeasible), and the accumulated
   (cuts, solves, nodes, pivots, refactors). *)
let collect ?cap ?time_limit ~t0 ~opt ~cut ~run ~seen d =
  let found = ref [] in
  let cuts = ref 0 and solves = ref 0 and nodes = ref 0 in
  let pivots = ref 0 and refactors = ref 0 in
  let exhausted = ref false in
  let left () =
    Option.map (fun tl -> tl -. Obs.Clock.elapsed t0) time_limit
  in
  let capped () =
    match cap with
    | Some c -> List.length !found + List.length seen >= c
    | None -> false
  in
  let timed_out () = match left () with Some l -> l <= 0. | None -> false in
  let rec loop d =
    if not (capped () || timed_out ()) then begin
      match run (left ()) d with
      | `Infeasible -> exhausted := true
      | `Budget -> ()
      | `Ok (v, s, (n, p, r)) ->
        incr solves;
        nodes := !nodes + n;
        pivots := !pivots + p;
        refactors := !refactors + r;
        let s = List.sort compare s in
        if v <> opt then exhausted := true
        else if s = [] || List.mem s !found || List.mem s seen then ()
        else begin
          found := s :: !found;
          incr cuts;
          loop (cut s d)
        end
    end
  in
  loop d;
  (!found, !exhausted, (!cuts, !solves, !nodes, !pivots, !refactors))

(* The family from the first optimum [s0], found with [first] = (nodes,
   pivots, refactors), and the [collect] results of the chains that
   searched past it; [s0_cuts] counts the cuts appended for [s0] itself. *)
let family ~t0 ~opt ~s0 ~first:(n0, p0, r0) ~s0_cuts chains =
  let sets, exhausted, (cuts, solves, nodes, pivots, refactors) =
    List.fold_left
      (fun (sets, ex, (c, s, n, p, r)) (ss, ex', (c', s', n', p', r')) ->
        (ss @ sets, ex && ex', (c + c', s + s', n + n', p + p', r + r')))
      ([ s0 ], true, (s0_cuts, 1, n0, 0, r0))
      chains
  in
  {
    opt;
    sets = canonical sets;
    exhausted;
    fstats =
      {
        cuts;
        solves;
        nodes;
        first_pivots = p0;
        cut_pivots = pivots;
        refactors;
        time = Obs.Clock.elapsed t0;
      };
  }

let drive ?cap ?time_limit ~pin ~cut ~run base =
  let t0 = Obs.Clock.now () in
  match run time_limit base with
  | `Infeasible -> `Infeasible
  | `Budget -> `Budget
  | `Ok (opt, s0, first) ->
    let s0 = List.sort compare s0 in
    `Family
      (if s0 = [] then
         (* OPT = 0: with all weights >= 1 the empty set is the unique
            optimal contingency set, and its no-good cut would be the empty
            row [0 <= -1] — terminate immediately instead. *)
         family ~t0 ~opt ~s0 ~first ~s0_cuts:0 []
       else
         let d = cut s0 (pin opt base) in
         family ~t0 ~opt ~s0 ~first ~s0_cuts:1
           [ collect ?cap ?time_limit ~t0 ~opt ~cut ~run ~seen:[ s0 ] d ])

(* --- Cold reference ------------------------------------------------------ *)

(* The differential reference the warm session path is tested against: the
   per-question encoding is frozen as built (so cut rows speak the
   encoding's variable indices), and every link of the chain runs on a fresh
   engine — a brand-new session absorbing the whole delta cold.
   Identical family, none of the warm-basis machinery. *)

let round_value x = int_of_float (Float.round x)

let cold_run ~exact ?node_limit base read time_left delta =
  match Lp.Solvers.engine ~exact base with
  | Lp.Solvers.Engine ((module B), s) -> (
    let r = B.solve_session ?node_limit ?time_limit:time_left ~delta s in
    match r.B.status with
    | B.Optimal ->
      `Ok
        ( round_value (B.to_float (Option.get r.B.objective)),
          read (B.to_floats (Option.get r.B.solution)),
          (r.B.nodes, r.B.pivots, r.B.refactors) )
    | B.Infeasible | B.Unbounded -> `Infeasible
    | B.Feasible | B.Limit_no_solution -> `Budget)

let enumerate_encoding ~exact ?node_limit ?time_limit ?cap (enc : Encode.encoding) =
  let base = Lp.Frozen.of_model enc.Encode.model in
  let pin_row =
    pin_expr
      (List.init (Lp.Frozen.num_vars base) (fun v ->
           (v, Lp.Frozen.objective base v)))
  in
  let pin opt d = Lp.Frozen.Delta.append_row Lp.Model.Leq opt pin_row d in
  let cut =
    no_good (fun tid -> Hashtbl.find_opt enc.Encode.var_of_tuple tid)
  in
  let run = cold_run ~exact ?node_limit base (Encode.contingency enc) in
  match drive ?cap ?time_limit ~pin ~cut ~run Lp.Frozen.Delta.empty with
  | `Family f -> Family f
  | `Infeasible -> No_contingency
  | `Budget -> Budget

let resilience_cold ?(exact = false) ?node_limit ?time_limit ?cap semantics q db =
  match Encode.res Encode.Ilp semantics q db with
  | Encode.Trivial _ -> Query_false
  | Encode.Impossible -> No_contingency
  | Encode.Encoded enc ->
    enumerate_encoding ~exact ?node_limit ?time_limit ?cap enc

let responsibility_cold ?(exact = false) ?node_limit ?time_limit ?cap semantics q db t =
  match Encode.rsp Encode.Ilp semantics q db t with
  | Encode.Trivial _ -> Query_false
  | Encode.Impossible -> No_contingency
  | Encode.Encoded enc ->
    enumerate_encoding ~exact ?node_limit ?time_limit ?cap enc
