(* Seeded input generation.  Every instance the workloads send to the
   program is drawn here, from a [Random.State.t] made of the --seed
   argument, and handed over as text (data lines and query strings): the
   library never sees the seed, and no datagen module of the program takes
   part, so a change to the program cannot change the benchmark's inputs. *)

(* [n] distinct tuples of [arity] constants drawn uniformly from [0, dom). *)
let distinct_tuples rng ~arity ~n ~dom =
  let cap =
    let rec pow acc k = if k = 0 || acc > n then acc else pow (acc * dom) (k - 1) in
    pow 1 arity
  in
  let n = min n cap in
  let seen = Hashtbl.create (2 * n) in
  let out = ref [] in
  while Hashtbl.length seen < n do
    let t = Array.init arity (fun _ -> Random.State.int rng dom) in
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      out := t :: !out
    end
  done;
  List.rev !out

let tuple_line rel args =
  Printf.sprintf "%s(%s)" rel (String.concat ", " (Array.to_list (Array.map string_of_int args)))

(* A relation spec: name, arity, tuple count; constants range over [0, dom). *)
type rel = { name : string; arity : int; count : int }

let random_data rng ~dom rels =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      List.iter
        (fun t ->
          Buffer.add_string buf (tuple_line r.name t);
          Buffer.add_char buf '\n')
        (distinct_tuples rng ~arity:r.arity ~n:r.count ~dom))
    rels;
  Buffer.contents buf

(* A 2-chain instance R(x,y), S(y,z) built group by group: group [g] owns the
   join value y = g, [a] R-tuples and [b] S-tuples with fresh x and z values.
   Groups share no tuple, so a minimum contingency set takes the smaller
   side of every group: RES* = sum of min(a, b), and the family of minimum
   sets has 2^ties members, one choice per group with a = b.  Enumeration
   families of uniform random data grow as 2^(number of ties) with no
   control; this shape fixes the family size while the join stays dense.
   Group sizes cycle through [lo, hi] and differ by one, the seed choosing
   which side is larger and which groups tie, so every seed gets the same
   amount of work in another arrangement. *)
type chain = { cdata : string; copt : int; csets : int }

let group_chain ?(r = "R") ?(s = "S") rng ~groups ~lo ~hi ~ties =
  let buf = Buffer.create 4096 in
  let opt = ref 0 in
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let tie = Array.init groups (fun g -> g < ties) in
  for g = groups - 1 downto 1 do
    let j = Random.State.int rng (g + 1) in
    let t = tie.(g) in
    tie.(g) <- tie.(j);
    tie.(j) <- t
  done;
  for g = 0 to groups - 1 do
    let small = lo + (g mod (hi - lo + 1)) in
    let a, b =
      if tie.(g) then (small, small)
      else if Random.State.bool rng then (small, small + 1)
      else (small + 1, small)
    in
    opt := !opt + min a b;
    let y = 1_000_000 + Random.State.int rng 1000 * groups + g in
    for _ = 1 to a do
      Buffer.add_string buf (tuple_line r [| fresh (); y |]);
      Buffer.add_char buf '\n'
    done;
    for _ = 1 to b do
      Buffer.add_string buf (tuple_line s [| y; fresh () |]);
      Buffer.add_char buf '\n'
    done
  done;
  { cdata = Buffer.contents buf; copt = !opt; csets = 1 lsl ties }
