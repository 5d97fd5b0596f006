(* A counter is a bare registry cell, so a disarmed [incr] is one load of
   the switch word and nothing else. *)
type t = int Atomic.t

let create ?help name = Metrics.counter_cell ?help name
let incr c = if Sink.recording () then Atomic.incr c
let add c n = if Sink.recording () then ignore (Atomic.fetch_and_add c n)

let record_max c n =
  if Sink.recording () then begin
    let rec go () =
      let seen = Atomic.get c in
      if n > seen && not (Atomic.compare_and_set c seen n) then go ()
    in
    go ()
  end

let value c = Atomic.get c

let snapshot () =
  List.filter_map
    (fun s ->
      match s.Metrics.svalue with
      | Metrics.Vcounter v -> Some (s.Metrics.sname, v)
      | Metrics.Vgauge _ | Metrics.Vhist _ -> None)
    (Metrics.snapshot ())
