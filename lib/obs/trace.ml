type span = {
  name : string;
  dom : int;
  t0 : float;
  t1 : float;
  args : (string * string) list;
}

(* The one per-domain event store.  Each domain appends to its own span
   buffer (unbounded, filled only while the trace sink is installed) and
   writes its own flight-recorder ring (64 slots, overwritten oldest
   first); a tiny per-store mutex makes the (quiescent-time) span drain
   race-free without serializing recording across domains, and the ring is
   lock-free.  Stores are registered in a global list at first use and
   never removed, so events survive the death of the pool domain that
   wrote them. *)
let ring_size = 64 (* power of two *)

type store = {
  mutable spans : span list;
  mu : Mutex.t;
  ring : span array;
  cursor : int Atomic.t;  (* ring writes so far; slot = cursor mod ring_size *)
}

let no_event = { name = ""; dom = 0; t0 = 0.; t1 = 0.; args = [] }
let all_stores : store list ref = ref []
let all_mu = Mutex.create ()

let stores () =
  Mutex.lock all_mu;
  let ss = !all_stores in
  Mutex.unlock all_mu;
  ss

let () =
  Sink.on_install (fun () ->
    List.iter
      (fun b ->
        Mutex.lock b.mu;
        b.spans <- [];
        Mutex.unlock b.mu;
        Atomic.set b.cursor 0)
      (stores ()))

let key =
  Domain.DLS.new_key (fun () ->
    let ring = Array.make ring_size no_event in
    let b = { spans = []; mu = Mutex.create (); ring; cursor = Atomic.make 0 } in
    Mutex.lock all_mu;
    all_stores := b :: !all_stores;
    Mutex.unlock all_mu;
    b)

let record name t0 t1 args =
  let b = Domain.DLS.get key in
  let s = { name; dom = (Domain.self () :> int); t0; t1; args } in
  Mutex.lock b.mu;
  b.spans <- s :: b.spans;
  Mutex.unlock b.mu

let with_span ?args name f =
  if not (Sink.active ()) then f ()
  else begin
    let t0 = Clock.now () in
    let finish () =
      let a = match args with None -> [] | Some thunk -> thunk () in
      record name t0 (Clock.now ()) a
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let begin_ () = if Sink.active () then Clock.now () else nan
let end_ t0 ?(args = []) name = if not (Float.is_nan t0) then record name t0 (Clock.now ()) args

let instant ?(args = []) name =
  if Sink.active () then begin
    let t = Clock.now () in
    record name t t args
  end

let drain () =
  let spans =
    List.concat_map
      (fun b ->
        Mutex.lock b.mu;
        let s = b.spans in
        b.spans <- [];
        Mutex.unlock b.mu;
        s)
      (stores ())
  in
  List.sort (fun a b -> compare (a.t0, a.dom) (b.t0, b.dom)) spans

(* --- flight-recorder ring --------------------------------------------------- *)

let ring_note name args =
  let b = Domain.DLS.get key in
  let t = Clock.now () in
  let i = Atomic.get b.cursor in
  b.ring.(i land (ring_size - 1)) <- { name; dom = (Domain.self () :> int); t0 = t; t1 = t; args };
  Atomic.set b.cursor (i + 1)

(* One ring in logical (oldest-first) order: once the cursor has wrapped,
   the oldest live slot is the one the next write would overwrite. *)
let ring_events b =
  let c = Atomic.get b.cursor in
  let first = if c < ring_size then 0 else c land (ring_size - 1) in
  List.init (min c ring_size) (fun k -> b.ring.((first + k) land (ring_size - 1)))

let ring_dump () =
  (* The clock can tie across consecutive events, so the cross-ring merge
     must be stable to keep each ring's logical order. *)
  stores ()
  |> List.concat_map ring_events
  |> List.stable_sort (fun a b -> compare (a.t0, a.dom) (b.t0, b.dom))
