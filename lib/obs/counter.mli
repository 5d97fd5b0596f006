(** Named atomic counters: the counter kind of the {!Metrics} registry.

    A counter is created once per name (creation is idempotent: two
    [create "x"] calls — e.g. from the float and exact instantiations of a
    solver functor — share one cell) and is safe to bump from any domain.
    Increments are dropped while neither the trace sink nor the metrics
    plane is on, so a counter bump on a hot path costs one atomic load and
    allocates nothing. *)

type t

val create : ?help:string -> string -> t
(** [create name] returns the counter registered under [name], creating it
    on first use.  Dotted names ("simplex.pivots") group the stats export;
    [help] is the Prometheus HELP line.
    @raise Invalid_argument if [name] is a gauge or histogram. *)

val incr : t -> unit
(** Add 1 (no-op while nothing is armed). *)

val add : t -> int -> unit
(** Add [n] (no-op while nothing is armed). *)

val record_max : t -> int -> unit
(** Raise the counter to at least [n] (no-op while nothing is armed).
    Used for high-water marks such as peak eta-file length. *)

val value : t -> int
(** Current value (always readable, even with nothing armed). *)

val snapshot : unit -> (string * int) list
(** All registered counters, sorted by name.  The registry is live: a
    counter created {e after} an earlier snapshot appears in every later
    one.  Goldens stay schema-stable anyway because the solver's counters
    are all registered at module-init time of whichever modules are
    linked, before any run — only dynamically created counters (tests,
    ad-hoc instrumentation) ever enter mid-run. *)
