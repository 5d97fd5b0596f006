(** A dependency-free domain pool for embarrassingly parallel solve batches.

    The paper's batched workloads — responsibility of every tuple, ILP-vs-LP
    sweeps — are families of independent (I)LPs over one shared immutable
    {!Frozen} program, so domain-level parallelism composes with the frozen
    model core for free: the CSR arrays are shared read-only across
    domains and only per-domain solver state is mutable.

    Design (see DESIGN.md §7): each batch spawns its own [jobs - 1]
    domains with [Domain.spawn] and joins them before returning, so no
    domain outlives its batch.  A batch of [tasks] indexed [0..tasks-1] is
    drained by {e chunked self-scheduling} (each participant repeatedly
    claims the next contiguous chunk of indices from one atomic cursor),
    and every task writes its result into the slot of its own index — so
    the output is positionally deterministic no matter which domain ran
    what, when.  The submitting domain participates in the batch, a task's
    exception is captured and re-raised in the submitter, and [jobs = 1]
    degrades to plain sequential execution with zero behavioural
    difference (no domains, no locks, tasks run in index order).

    Runs are synchronous; a pool holds no per-batch state, so several
    domains may run batches on one pool at the same time, each spawning
    its own domains. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [create ~jobs:0] and the
    CLI's [--jobs 0] resolve to. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] is a pool of [jobs] participants per batch: each
    batch spawns [jobs - 1] domains (no more than it has chunks), and the
    submitter is the last participant.  [jobs = 0] (and omitting [jobs])
    means {!default_jobs}; negative values raise [Invalid_argument]. *)

val jobs : t -> int
(** Total participating domains, including the submitter; always >= 1. *)

val run : ?chunk:int -> t -> tasks:int -> (int -> 'a) -> 'a array
(** [run pool ~tasks f] computes [[| f 0; ...; f (tasks-1) |]], distributing
    the index range over the pool's domains in chunks of [chunk] (default: a
    self-scheduling fraction of [tasks / jobs]).  The result array is
    identical to sequential evaluation for pure [f] regardless of [jobs] or
    [chunk].  If any task raises, remaining chunks are abandoned, in-flight
    tasks finish, and the first exception (in completion order) is re-raised
    here with its backtrace.  A [Domain.spawn] that fails (the runtime's
    domain limit) fails the batch the same way: the domains already
    started are joined, then its exception is re-raised.
    @raise Invalid_argument if the pool has been shut down. *)

val run_init : ?chunk:int -> t -> init:(unit -> 's) -> tasks:int -> ('s -> int -> 'a) -> 'a array
(** [run_init pool ~init ~tasks f] is {!run} with per-domain worker state:
    each participating domain calls [init ()] at most once per batch (before
    its first task) and passes the result to every task it runs — how a
    solve batch gives each domain its own warm simplex session over the
    shared frozen program. *)

val shutdown : t -> unit
(** Closes the pool: sets a flag, so later {!run}s raise.  A batch in
    flight completes.  Idempotent, safe from any domain, and lock-free. *)

val request_shutdown : t -> unit
(** Records a shutdown request without closing the pool: batches keep
    running.  The owner is expected to poll {!shutdown_requested} from
    normal context and call {!shutdown}. *)

val shutdown_requested : t -> bool
(** Has {!request_shutdown} (or {!shutdown}) been called? *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down on the
    way out, exceptions included. *)
