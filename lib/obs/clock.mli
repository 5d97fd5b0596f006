(** Monotonized wall clock shared by every duration in the system.

    OCaml's stdlib exposes no monotonic clock without external deps, so we
    monotonize [Unix.gettimeofday]: a global high-water mark (stored as an
    atomic int64 of the float's bits) guarantees [now] never goes backwards,
    even across domains, if the wall clock is stepped by NTP.  All spans,
    time limits and reported durations in the repo call this module
    directly, so traces and stats are mutually consistent.  Solver budgets
    such as the paper's ILP(10) cutoff are wall-clock budgets, which the
    processor time of [Sys.time] is not. *)

val now : unit -> float
(** Monotonically non-decreasing timestamp in seconds.  The origin is the
    Unix epoch, so absolute values are meaningful for humans; only
    differences are contractual. *)

val elapsed : float -> float
(** [elapsed t0] is [now () -. t0], clamped at 0. *)
