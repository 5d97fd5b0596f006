type tuple_id = int

type tuple_info = { id : tuple_id; rel : string; args : int array; mult : int; exo : bool }

type t = {
  syms : Symbol.t;
  by_key : (string * int list, tuple_id) Hashtbl.t;
  store : (tuple_id, tuple_info) Hashtbl.t;
  mutable order : tuple_id list;  (* reverse insertion order, retired ids included *)
  mutable retired : int;  (* retired ids in [order] *)
  mutable next_id : int;
  arities : (string, int) Hashtbl.t;
}

let create ?symbols () =
  let syms = match symbols with Some s -> s | None -> Symbol.create () in
  {
    syms;
    by_key = Hashtbl.create 256;
    store = Hashtbl.create 256;
    order = [];
    retired = 0;
    next_id = 0;
    arities = Hashtbl.create 8;
  }

let symbols t = t.syms
let arity t rel = Hashtbl.find_opt t.arities rel

let key rel args = (rel, Array.to_list args)

let add ?(mult = 1) ?(exo = false) t rel args =
  if mult < 1 then invalid_arg "Database.add: multiplicity must be >= 1";
  (match Hashtbl.find_opt t.arities rel with
  | Some ar when ar <> Array.length args ->
    invalid_arg (Printf.sprintf "Database.add: relation %s has arity %d" rel ar)
  | Some _ -> ()
  | None -> Hashtbl.add t.arities rel (Array.length args));
  let k = key rel args in
  match Hashtbl.find_opt t.by_key k with
  | Some id ->
    let info = Hashtbl.find t.store id in
    Hashtbl.replace t.store id { info with mult = info.mult + mult; exo = info.exo || exo };
    id
  | None ->
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.add t.by_key k id;
    Hashtbl.add t.store id { id; rel; args = Array.copy args; mult; exo };
    t.order <- id :: t.order;
    id

let add_named ?mult ?exo t rel names =
  add ?mult ?exo t rel (Array.map (Symbol.intern t.syms) names)

let mem t id = Hashtbl.mem t.store id

let tuple t id =
  match Hashtbl.find_opt t.store id with Some info -> info | None -> raise Not_found

let remove t id =
  match Hashtbl.find_opt t.store id with
  | None -> ()
  | Some info ->
    Hashtbl.remove t.store id;
    Hashtbl.remove t.by_key (key info.rel info.args);
    (* Prune once retired ids outnumber live ones: walks cost the live count. *)
    t.retired <- t.retired + 1;
    if t.retired > Hashtbl.length t.store then begin
      t.order <- List.filter (Hashtbl.mem t.store) t.order;
      t.retired <- 0
    end

let set_exo t id exo =
  let info = tuple t id in
  Hashtbl.replace t.store id { info with exo }

let set_mult t id mult =
  if mult < 1 then invalid_arg "Database.set_mult: multiplicity must be >= 1";
  let info = tuple t id in
  Hashtbl.replace t.store id { info with mult }

let find t rel args = Hashtbl.find_opt t.by_key (key rel args)

let tuples t =
  List.rev t.order |> List.filter_map (fun id -> Hashtbl.find_opt t.store id)

let tuples_of t rel = tuples t |> List.filter (fun info -> info.rel = rel)

let rel_names t =
  let seen = Hashtbl.create 8 in
  tuples t
  |> List.filter_map (fun info ->
         if Hashtbl.mem seen info.rel then None
         else begin
           Hashtbl.add seen info.rel ();
           Some info.rel
         end)

let num_tuples t = Hashtbl.length t.store

let total_multiplicity t = List.fold_left (fun acc info -> acc + info.mult) 0 (tuples t)

let copy t =
  let fresh =
    {
      syms = t.syms;
      by_key = Hashtbl.copy t.by_key;
      store = Hashtbl.copy t.store;
      order = t.order;
      retired = t.retired;
      next_id = t.next_id;
      arities = Hashtbl.copy t.arities;
    }
  in
  fresh

let restrict t pred =
  let fresh = copy t in
  List.iter (fun info -> if not (pred info) then remove fresh info.id) (tuples t);
  fresh

(* FNV-1a over the live contents in insertion order.  Ids are mixed in
   deliberately: a session cache keyed by fingerprint must not treat two
   databases as interchangeable when their tuple ids differ, since answers
   (contingency sets, responsibility targets) are phrased in ids. *)
let fingerprint t =
  let h = ref 0xcbf29ce484222325L in
  let mix v = h := Int64.mul (Int64.logxor !h v) 0x100000001b3L in
  let mix_int v = mix (Int64.of_int v) in
  let mix_str s =
    String.iter (fun c -> mix_int (Char.code c)) s;
    mix_int (-1)
  in
  List.iter
    (fun info ->
      mix_int info.id;
      mix_str info.rel;
      Array.iter mix_int info.args;
      mix_int info.mult;
      mix_int (if info.exo then 1 else 0);
      mix_int (-2))
    (tuples t);
  !h

let max_const t =
  List.fold_left (fun acc info -> Array.fold_left max acc info.args) 0 (tuples t)

let pp fmt t =
  List.iter
    (fun rel ->
      Format.fprintf fmt "%s:@." rel;
      List.iter
        (fun info ->
          Format.fprintf fmt "  #%d (%s)%s%s@." info.id
            (String.concat ", " (Array.to_list info.args |> List.map (Symbol.name t.syms)))
            (if info.mult > 1 then Printf.sprintf " x%d" info.mult else "")
            (if info.exo then " [exo]" else ""))
        (tuples_of t rel))
    (rel_names t)
