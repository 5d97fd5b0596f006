(** Append-only JSONL run-log of per-solve records — the
    feature→runtime corpus for the adaptive solver portfolio (ROADMAP).

    Schema: each [enable] appends one {e versioned header line}
    [{"runlog":"resil-solve","version":N}] marking a run boundary, then
    the solve path ([Resilience.Session.run_engine], which every warm and
    cold question goes through) appends one record per solve: the
    [Lp.Struct] feature vector of the solved program, the dispatch path
    taken (certified / branch-and-bound / relaxation), and the outcome
    (status, objective, nodes, pivots, refactors, wall seconds).
    Consumers must skip records from header versions they do not know.
    Version 2 dropped version 1's [verdict] and [structural] fields (the
    solve path no longer runs a structure analysis); the feature vector
    is computed only while the log is enabled.  Floats print with enough
    digits to round-trip rather than the six decimals of earlier logs;
    the field set is unchanged, so the version is still 2.

    While disabled, an instrumented site costs one atomic load and builds
    nothing ({!record} takes a thunk).  Writing is mutex-serialized and
    line-buffered, so records from parallel rankings interleave whole. *)

val schema_version : int

val enable : string -> unit
(** Open [path] for append (creating it if needed) and write the header
    line.  Replaces any previously enabled log. *)

val disable : unit -> unit
val enabled : unit -> bool

val record : (unit -> (string * Json.t) list) -> unit
(** Append one record, an object of the given fields in their order,
    printed by {!Json.to_string} (floats round-trip, non-finite ones read
    [null]); the thunk runs only when enabled. *)
