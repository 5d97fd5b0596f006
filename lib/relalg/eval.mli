(** Witness computation: evaluating a Boolean CQ over a database.

    A witness (Section 3.1) is a valuation of the query variables permitted
    by the database that makes the query true.  It is kept as its tuple row:
    the tuple each atom maps to, which determines the valuation (see
    {!valuation}).  Its tuple set — the ILP's row (Section 4) — can be
    smaller than the number of atoms under a self-join (a tuple may serve
    several atoms).

    Evaluation is one backtracking join over a plan.  For {!witnesses} and
    {!holds}, atoms are reordered greedily to bind variables early, and each
    atom position is served by a hash index on its bound columns, built once
    per evaluation. *)

type witness = { tuples : Database.tuple_id array  (** Aligned with the query's atoms. *) }

val witnesses : Cq.t -> Database.t -> witness list
(** All witnesses, in deterministic order. *)

val holds : Cq.t -> Database.t -> bool
(** [true] iff the query has at least one witness (early exit). *)

val delta_insert : Cq.t -> Database.t -> Database.tuple_id -> witness list
(** [delta_insert q db id] — the witnesses that use tuple [id], computed by
    the same join over one plan per unifiable atom: that atom pinned to the
    tuple, then the other atoms' relations scanned in query order (never
    re-enumerating witnesses that avoid the tuple).  When [id] was just
    inserted into [db] {e as a new tuple}, this is exactly the set of
    witnesses the insert created, which is what a resilience session
    maintains.  Deduplicated on the tuple row; deterministic order, but not
    the order of {!witnesses}.  Returns [[]] if the tuple is not live. *)

val valuation : Cq.t -> Database.t -> witness -> (string * int) list
(** [valuation q db] reads a witness's variable bindings, in query-variable
    order, from the tuples of [db] its row names (each must be live).
    Apply it once per query and reuse the reader across witnesses. *)

val tuple_set : witness -> Database.tuple_id list
(** The witness's distinct tuple ids, sorted. *)

val unique_tuple_sets : witness list -> Database.tuple_id list list
(** Distinct tuple sets over all witnesses — the rows of the ILP constraint
    matrix (Section 4). *)

val count : Cq.t -> Database.t -> int
(** Number of witnesses, as used by the non-leaking-composition
    check of Definition 7.3. *)
