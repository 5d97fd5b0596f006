(** Flight recorder: the last events of every domain, kept for a
    post-mortem after a timeout, error or signal.

    Events are {!Trace.span} instants ([t0 = t1]) written into the bounded
    ring of the calling domain's {!Trace} event store: 64 slots,
    overwriting the oldest.  The recorder has its own bit in the {!Sink}
    word, independent of the trace sink and metrics plane — [resil serve]
    arms it at startup and leaves it on (the rings never grow), one-shot
    commands never arm it.  While disarmed {!note} is one atomic load;
    while armed it is one slot write plus one atomic cursor store, no
    locks, no I/O.  The serve engine renders the dump, inline in a
    [timeout] error and in [--recorder-file]. *)

val note : ?fields:(string * string) list -> string -> unit
(** [note ~fields op] records one instant named [op], with [fields] as its
    args, into the calling domain's ring (no-op while disarmed). *)

val dump : unit -> Trace.span list
(** Every retained event across all domains, oldest first.  Best-effort
    against racing writers (a writer can replace the slot being read,
    never block or crash the dump). *)
