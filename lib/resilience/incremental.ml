open Relalg

(* Re-encodes from the witness list after a write the session could not
   take as an overlay (the first build is not counted); dropped unless a
   trace sink is installed. *)
let c_rebuilds = Obs.Counter.create "incremental.rebuilds"

type t = {
  idb : Database.t;  (* borrowed; mutated only through [insert]/[delete] *)
  isem : Problem.semantics;
  iq : Cq.t;
  iexact : bool;
  mutable iwitnesses : Eval.witness list;
  mutable isession : Session.t Lazy.t;
      (* Built on the first question; a pending build reads the witness
         list as it is when forced, so writes before it need no overlay. *)
}

let build t = Session.create ~exact:t.iexact ~witnesses:t.iwitnesses t.isem t.iq t.idb

let create ?(exact = false) semantics q db =
  let rec t =
    { idb = db; isem = semantics; iq = q; iexact = exact; iwitnesses = Eval.witnesses q db;
      isession = lazy (build t) }
  in
  t

let db t = t.idb
let witnesses t = t.iwitnesses
let session t = Lazy.force t.isession

let rebuild t = t.isession <- lazy (Obs.Counter.incr c_rebuilds; build t)

(* Hand a write to the built session; [false] from it means rebuild. *)
let overlay t write = if Lazy.is_val t.isession && not (write (session t)) then rebuild t

let check_borrowers db ts =
  if List.exists (fun t -> t.idb != db) ts then invalid_arg "Incremental: another database"

let insert ?mult ?exo db ts rel args =
  check_borrowers db ts;
  let existing = Database.find db rel args <> None in
  let id = Database.add ?mult ?exo db rel args in
  List.iter
    (fun t ->
      (* Multiplicity bump / exogeneity OR: the witnesses are unchanged but
         objective weights (and possibly endogeneity) moved. *)
      if existing then (if Lazy.is_val t.isession then rebuild t)
      else
        let fresh = Eval.delta_insert t.iq db id in
        if fresh <> [] then begin
          t.iwitnesses <- t.iwitnesses @ fresh;
          overlay t (fun s -> Session.add_witnesses s fresh)
        end)
    ts;
  id

(* A tuple in no witness leaves the witness list and the program as they are. *)
let delete db ts id =
  check_borrowers db ts;
  let uses w = Array.exists (fun x -> x = id) w.Eval.tuples in
  Database.remove db id;
  List.iter
    (fun t ->
      if List.exists uses t.iwitnesses then begin
        t.iwitnesses <- List.filter (fun w -> not (uses w)) t.iwitnesses;
        overlay t (fun s -> Session.drop_tuple s id)
      end)
    ts
