(** The instrument registry, with Prometheus and JSON exposition.

    One table holds all three instrument kinds — monotone counters
    (recorded through {!Counter}), gauges, and {!Histogram}-backed
    latency/size distributions — registered once per (name, static label
    set) at module-init time, recorded from any domain, and exported with
    a {e run-independent shape}: every registered instrument is always
    exposed (zero-valued when untouched) and histograms render against a
    fixed bucket ladder, so digit-normalized goldens are stable across runs
    and job counts.

    Recording is gated on {!Sink.recording} (the trace sink {e or} the
    metrics plane): an un-armed process pays exactly one atomic load per
    instrumented site.  [Sink.install] zeroes every instrument;
    [Sink.arm_metrics] does not (services accumulate). *)

type gauge
type histogram = Histogram.t

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge
val histogram : ?help:string -> ?labels:(string * string) list -> string -> histogram
(** Idempotent per (name, labels), like {!Counter.create}.  Registering an
    existing (name, labels) under a different kind raises
    [Invalid_argument]. *)

val set : gauge -> float -> unit
val observe : histogram -> float -> unit
(** Both no-ops while nothing is armed (one atomic load). *)

(** {2 Snapshot isolation}

    A snapshot reads each cell exactly once into an immutable view;
    renderers below consume snapshots, so one exposition never mixes
    states from different instants of the same instrument. *)

type value = Vcounter of int | Vgauge of float | Vhist of Histogram.snapshot

type series = {
  sname : string;
  shelp : string;
  slabels : (string * string) list;  (** sorted by key *)
  svalue : value;
}

val snapshot : unit -> series list
(** Every instrument, sorted by (name, labels). *)

val prometheus : unit -> string
(** Prometheus text exposition (format 0.0.4): HELP/TYPE headers, one
    line per series, histograms as cumulative [le] buckets over a fixed
    ladder plus [_sum]/[_count].  Metric names have non-identifier
    characters mapped to ['_']. *)

val prometheus_of : series list -> string

val json : unit -> Json.t
(** Flat JSON: [{"counters": {...}, "gauges": {...}, "histograms":
    {name: {"count", "sum", "p50", "p90", "p99", "p999"}}}] with keys
    sorted.  Quantiles of an empty histogram read 0. *)

val json_of : series list -> Json.t

(**/**)

val counter_cell : ?help:string -> string -> int Atomic.t
(* The registry side of {!Counter.create}; use that instead. *)
