open Relalg

type config = {
  domain : int;
  max_generators : int;
  exo_rels : string list;
  work_limit : int;
  time_limit : float;
}

let default_config =
  { domain = 5; max_generators = 4; exo_rels = []; work_limit = 2_000_000; time_limit = 120.0 }

type stats = { candidates : int; checked : int; elapsed : float }

type endpoint = (string * int array) list

(* Endpoint pairs are subsets of a canonical witness's endogenous tuples
   (paper footnote 11): take the canonical valuation var_i -> i, keep a
   subset of its tuples, and rename its constants to 1..k for the start and
   k+1..2k for the terminal — isomorphic, non-identical, constant-disjoint
   by construction.  Subsets of size 1 and 2 cover all of the paper's
   gadgets; singletons come first so minimal certificates are found first. *)
let endpoint_candidates q =
  let vars = Cq.vars q in
  let const_of v =
    let rec idx i = function
      | [] -> assert false
      | x :: rest -> if x = v then i else idx (i + 1) rest
    in
    1 + idx 0 vars
  in
  let tuples =
    Array.to_list q.Cq.atoms
    |> List.filter (fun (a : Cq.atom) -> not a.Cq.exo)
    |> List.map (fun (a : Cq.atom) ->
           ( a.Cq.rel,
             Array.map (function Cq.Const c -> c | Cq.Var v -> const_of v) a.Cq.terms ))
    |> List.sort_uniq compare
  in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
      let rest_subsets = subsets rest in
      rest_subsets @ List.map (fun s -> x :: s) rest_subsets
  in
  let candidate subset =
    let consts =
      List.concat_map (fun (_, args) -> Array.to_list args) subset |> List.sort_uniq compare
    in
    let k = List.length consts in
    let rank c =
      let rec idx i = function
        | [] -> assert false
        | x :: rest -> if x = c then i else idx (i + 1) rest
      in
      idx 0 consts
    in
    let rename shift (rel, args) = (rel, Array.map (fun c -> shift + 1 + rank c) args) in
    (List.map (rename 0) subset, List.map (rename k) subset)
  in
  subsets tuples
  |> List.filter (fun s -> s <> [] && List.length s <= 2)
  |> List.sort (fun a b -> compare (List.length a) (List.length b))
  |> List.map candidate
  |> List.sort_uniq compare

(* All valuations of the query variables over 1..d, presented as the tuple
   list they generate: (rel, args) per atom, deduplicated. *)
let valuations q d =
  let vars = Array.of_list (Cq.vars q) in
  let n = Array.length vars in
  let assign = Array.make n 1 in
  let out = ref [] in
  let rec go i =
    if i = n then begin
      let binding v =
        let rec find j = if vars.(j) = v then assign.(j) else find (j + 1) in
        find 0
      in
      let tuples =
        Array.to_list q.Cq.atoms
        |> List.map (fun (at : Cq.atom) ->
               ( at.Cq.rel,
                 Array.map (function Cq.Const c -> c | Cq.Var v -> binding v) at.Cq.terms ))
        |> List.sort_uniq compare
      in
      out := tuples :: !out
    end
    else
      for v = 1 to d do
        assign.(i) <- v;
        go (i + 1)
      done
  in
  go 0;
  !out

let contains_all gen endpoint =
  List.for_all (fun (rel, args) -> List.exists (fun (r, a) -> r = rel && a = args) gen) endpoint

(* Combinations (order-insensitive, without repetition) of size k. *)
let rec combinations k xs =
  if k = 0 then [ [] ]
  else
    match xs with
    | [] -> []
    | x :: rest -> List.map (fun c -> x :: c) (combinations (k - 1) rest) @ combinations k rest

let try_candidate q exo_rels s_tuples t_tuples gens =
  let db = Database.create () in
  (* set semantics: a tuple shared by several generators is one tuple *)
  List.concat gens |> List.sort_uniq compare
  |> List.iter (fun (rel, args) ->
         ignore (Database.add ~exo:(List.mem rel exo_rels) db rel args));
  let find_ids tuples =
    List.map (fun (rel, args) -> Database.find db rel args) tuples
    |> List.fold_left
         (fun acc id -> match (acc, id) with Some acc, Some id -> Some (id :: acc) | _ -> None)
         (Some [])
  in
  match (find_ids s_tuples, find_ids t_tuples) with
  | Some start, Some terminal ->
    let jp = { Join_path.q; db; start; terminal } in
    (match Join_path.check_ijp Resilience.Problem.Set jp with Ok _ -> Some jp | Error _ -> None)
  | _ -> None

(* Per-endpoint search state, so that the driver can interleave endpoint
   pairs level by level (all pairs at k generators before any pair at k+1 —
   minimal certificates are found first and no pair starves the others). *)
type ep_state = {
  s : endpoint;
  t : endpoint;
  with_s : (string * int array) list list;
  with_t : (string * int array) list list;
  seen : ((string * int array) list, unit) Hashtbl.t;
}

let search_level config q all state ~k ~t0 ~candidates ~checked =
  let found = ref None in
  let out_of_budget () =
    !candidates >= config.work_limit || Obs.Clock.elapsed t0 > config.time_limit
  in
  let consider gens =
    if !found = None && not (out_of_budget ()) then begin
      incr candidates;
      let key = List.sort_uniq compare (List.concat gens) in
      if not (Hashtbl.mem state.seen key) then begin
        Hashtbl.add state.seen key ();
        incr checked;
        match try_candidate q config.exo_rels state.s state.t gens with
        | Some jp -> found := Some jp
        | None -> ()
      end
    end
  in
  let middles = combinations (k - 2) all in
  List.iter
    (fun gs ->
      if !found = None then
        List.iter
          (fun gt ->
            if !found = None then
              List.iter (fun middle -> consider ((gs :: middle) @ [ gt ])) middles)
          state.with_t)
    state.with_s;
  !found

let find_many ?(config = default_config) q endpoint_pairs =
  let t0 = Obs.Clock.now () in
  let all = valuations q config.domain in
  let states =
    List.map
      (fun (s, t) ->
        {
          s;
          t;
          with_s = List.filter (fun g -> contains_all g s) all;
          with_t = List.filter (fun g -> contains_all g t) all;
          seen = Hashtbl.create 4096;
        })
      endpoint_pairs
  in
  let candidates = ref 0 and checked = ref 0 in
  let out_of_budget () =
    !candidates >= config.work_limit || Obs.Clock.elapsed t0 > config.time_limit
  in
  let found = ref None in
  let k = ref 2 in
  while !found = None && !k <= config.max_generators && not (out_of_budget ()) do
    List.iter
      (fun state ->
        if !found = None then
          match search_level config q all state ~k:!k ~t0 ~candidates ~checked with
          | Some jp -> found := Some jp
          | None -> ())
      states;
    incr k
  done;
  Option.map
    (fun jp -> (jp, { candidates = !candidates; checked = !checked; elapsed = Obs.Clock.elapsed t0 }))
    !found

let find_with_endpoints ?config q ~s ~t = find_many ?config q [ (s, t) ]

let find ?(config = default_config) q =
  (* Exogenous tuples cannot serve as endpoints: the vertex-cover reduction
     deletes endpoint tuples. *)
  let pairs =
    endpoint_candidates q
    |> List.filter (fun (s, _) ->
           List.for_all (fun (rel, _) -> not (List.mem rel config.exo_rels)) s)
  in
  find_many ~config q pairs
