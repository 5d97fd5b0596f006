(** The global telemetry switches.

    All instrumentation in the repo is guarded by one atomic word holding
    three independent bits: the {e trace sink} (spans, installed by
    [resil … --trace]/[--stats]), the {e metrics plane} (counters, gauges,
    histograms — armed by [resil … --metrics] and by [resil serve]) and the
    {e flight recorder} (the per-domain ring of recent events, armed by
    [resil serve]).  With nothing armed every instrumented site reduces to
    a single non-allocating atomic load, so telemetry support costs
    nothing in production runs.  Instruments record whenever the trace or
    the metrics bit is on: the stats export and the metrics exposition
    both read them. *)

val install : unit -> unit
(** Enable span collection.  Resets every instrument, the buffered spans
    and the recorder rings, so the subsequent drain reflects exactly the
    traced region. *)

val uninstall : unit -> unit
(** Disable span collection.  Buffered spans and instrument values are
    kept until the next [install] so they can still be drained/snapshotted. *)

val active : unit -> bool
(** The trace sink is installed (single atomic load).  Guards span
    recording. *)

val arm_metrics : unit -> unit
(** Enable the metrics plane.  Unlike [install] this does {e not} reset:
    a long-running service arms once and accumulates across requests. *)

val disarm_metrics : unit -> unit

val metrics_active : unit -> bool
(** The metrics plane is armed (single atomic load). *)

val arm_recorder : unit -> unit
(** Enable the flight recorder ({!Recorder.note}).  Does not reset. *)

val disarm_recorder : unit -> unit

val recorder_armed : unit -> bool
(** The flight recorder is armed (single atomic load). *)

val recording : unit -> bool
(** The trace sink or the metrics plane is on (single atomic load) — the
    guard of every instrument.  The recorder bit is not part of it. *)

val any : unit -> bool
(** Some bit is on (single atomic load) — for call sites that feed both
    instruments and the recorder. *)

val on_install : (unit -> unit) -> unit
(** Register a reset hook run by [install].  Internal to [Obs]: the
    instrument registry and the per-domain event store use it to clear
    their state without a dependency cycle. *)
