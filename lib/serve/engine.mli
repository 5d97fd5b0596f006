(** The serve state machine: one mutable database plus a bounded cache of
    maintained {!Resilience.Session}s, driven one protocol line at a time.

    Transport-agnostic and exception-free: {!handle_line} maps any input
    line — malformed JSON included — to exactly one response line, so the
    whole protocol is exercised in-process by the test suite and
    [bin/resil] only adds socket/stdio plumbing.

    {b Session cache.}  Questions are answered by sessions keyed by
    (canonical query text, semantics, exact), all borrowing the engine's
    one database.  [insert]/[delete] mutate it once and maintain every
    cached session ({!Resilience.Session.insert}/[delete]); [load]
    replaces it and drops the cache, counted in [invalidations].  The
    cache holds at most [max_sessions] sessions, evicting
    least-recently-used.  The database fingerprint [stats] shows is
    computed at most once per database state.

    {b Shutdown.}  {!request_stop} only flips an atomic, so it is safe
    from a signal handler.  Once stopping, new requests are refused with
    the [shutting_down] error — but every sub-request of an
    already-admitted batch is still served (graceful drain).

    {b Metrics.}  Unless created with [~metrics:false] the engine arms the
    metrics plane ({!Obs.Sink.arm_metrics}) and the flight recorder
    ({!Obs.Sink.arm_recorder}) at startup: per-op request/solve latency
    histograms, queue-wait, cache gauges and request/timeout counters are
    maintained, the [metrics] protocol op exposes them (JSON or Prometheus
    text), and a [timeout] error's ["data"] carries the last 16
    flight-recorder events under ["flight_recorder"].  {!recorder_json}
    renders every retained event the same way. *)

type t

val create : ?metrics:bool -> ?max_sessions:int -> ?max_line:int -> unit -> t
(** Empty database, empty cache.  [metrics] (default [true]) arms the
    process-wide metrics plane and flight recorder — it never enables span
    buffering, so memory stays bounded.  [max_sessions] defaults to 8
    (min 1); [max_line] (payload cap in bytes, rejected with [too_large])
    defaults to 1 MiB. *)

val handle_line : ?received_at:float -> t -> string -> string
(** One request line in, one response line out (no trailing newline).
    Never raises.  [received_at] (an {!Obs.Clock.now} stamp taken by the
    transport when the line arrived) feeds the queue-wait histogram. *)

val request_stop : t -> unit
(** Flip the stop flag — async-signal-safe (one atomic store). *)

val stopping : t -> bool

val max_line : t -> int

val recorder_json : unit -> string
(** [{"flight_recorder": [{"t", "dom", "op", ...fields}]}]: every retained
    {!Obs.Recorder} event, oldest first, rendered as in a [timeout] error
    (numeric fields as JSON numbers).  One line, no trailing newline. *)
