(** The per-domain event store: span buffers merged at drain time, and the
    flight recorder's rings.

    A span is a completed interval [(t0, t1)] on one domain's track, with a
    static name and optional key/value args; an instant is a span with
    [t0 = t1].  Each domain owns one store (created lazily via
    [Domain.DLS] and kept alive past domain exit) holding an unbounded
    span buffer and a bounded ring, so recording adds no cross-domain
    contention; the single submitter merges and sorts all buffers at
    [drain].  Nothing is buffered while no sink is installed —
    [with_span] then just runs its body.  [Sink.install] empties the span
    buffers and the rings. *)

type span = {
  name : string;
  dom : int;  (** recording domain's id — one Perfetto track per value *)
  t0 : float;
  t1 : float;
  args : (string * string) list;
}

val with_span : ?args:(unit -> (string * string) list) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and, if the sink is active, records the
    interval it occupied (also on exception, which is re-raised).  [args] is
    a thunk so argument rendering costs nothing when disabled. *)

val begin_ : unit -> float
(** Explicit open of a span: [Clock.now ()] if the sink is active, [nan]
    otherwise.  For call sites where a closure per span would be awkward. *)

val end_ : float -> ?args:(string * string) list -> string -> unit
(** [end_ t0 name] records [(t0, now)] under [name]; no-op when [t0] is the
    [nan] returned by a disabled [begin_]. *)

val instant : ?args:(string * string) list -> string -> unit
(** Zero-duration marker event on the current domain's track. *)

val drain : unit -> span list
(** Take every buffered span from every domain that recorded any, sorted by
    start time, and clear the buffers.  Call only when worker domains are
    quiescent (after pool tasks complete). *)

(**/**)

(* The ring side of the store, behind {!Recorder}; use that module. *)

val ring_note : string -> (string * string) list -> unit
val ring_dump : unit -> span list
