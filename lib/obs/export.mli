(** Serialization of drained telemetry.

    Two formats, matching the two consumers: Chrome trace-event JSON for a
    human staring at Perfetto (one track per domain, ts/dur in microseconds
    relative to the earliest span), and a flat stats JSON for golden tests
    and CI trend lines (the registry's counters plus per-name span
    aggregates, every float printed with a fixed ["%.6f"] so
    digit-normalized goldens are stable).  Strings are escaped by
    {!Json.escape}. *)

val write_chrome : out_channel -> Trace.span list -> unit
(** Write a complete [{"traceEvents": [...]}] document: one thread-name
    metadata event per domain that recorded spans, then every span as a
    ["ph":"X"] complete event. *)

val chrome_to_file : string -> Trace.span list -> unit

val stats_json : Trace.span list -> string
(** [{"counters": {...}, "spans": {name: {"count": n, "total_s": s}},
    "wall_s": s}] with keys sorted.  The counter snapshot is live
    ({!Counter.snapshot}); the solver's counters all register at
    module-init time, so in practice the schema does not depend on the
    execution. *)
