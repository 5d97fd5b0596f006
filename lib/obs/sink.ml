(* Three independently-armed switches share one atomic word, so every
   instrumented site keeps its single-load off path: bit 0 is the trace
   sink (spans), bit 1 the metrics plane, bit 2 the flight recorder.
   Instruments feed both the stats export and the metrics exposition, so
   they record under either of the first two bits. *)
let flag = Atomic.make 0

let trace_bit = 1
let metrics_bit = 2
let recorder_bit = 4

(* Reset hooks are registered by Metrics and Trace at module-init time; the
   indirection avoids a dependency cycle (they read the bits, we clear
   them). *)
let reset_hooks : (unit -> unit) list ref = ref []
let on_install f = reset_hooks := f :: !reset_hooks

let active () = Atomic.get flag land trace_bit <> 0
let recording () = Atomic.get flag land (trace_bit lor metrics_bit) <> 0
let metrics_active () = Atomic.get flag land metrics_bit <> 0
let recorder_armed () = Atomic.get flag land recorder_bit <> 0
let any () = Atomic.get flag <> 0

let rec set_bit b =
  let v = Atomic.get flag in
  if not (Atomic.compare_and_set flag v (v lor b)) then set_bit b

let rec clear_bit b =
  let v = Atomic.get flag in
  if not (Atomic.compare_and_set flag v (v land lnot b)) then clear_bit b

let install () =
  List.iter (fun f -> f ()) !reset_hooks;
  set_bit trace_bit

let uninstall () = clear_bit trace_bit

(* Arming the metrics plane or the recorder deliberately does not reset: a
   long-running service arms once at startup and keeps accumulating across
   requests. *)
let arm_metrics () = set_bit metrics_bit
let disarm_metrics () = clear_bit metrics_bit
let arm_recorder () = set_bit recorder_bit
let disarm_recorder () = clear_bit recorder_bit
