open! Relalg

(** A maintained resilience instance: one (query, database) pair kept alive
    across tuple inserts and deletes.  It owns a {!Database.copy}, the
    witness list, kept by delta-joins ({!Eval.delta_insert}), and one
    {!Session.t}; every question is a {!Session} call on {!session}.

    Writes are overlays on the session's program ({!Session.add_witnesses},
    {!Session.drop_tuple}: the live set, the counterfactual refresh and the
    compaction rule are described there).  A write re-encodes from the
    witness list, counted by [incremental.rebuilds] and paid by the next
    question, only on compaction, on re-insert of an existing tuple (its
    weight or exogeneity moves), or when leaving a no-program state (the
    query false, or a fully exogenous witness, at build).

    Every answer must equal the from-scratch {!Solve} answer on the current
    database: the [serve_incremental] oracle checks it under random
    insert/delete streams, at float and exact fields. *)

type t

val create : ?exact:bool -> Problem.semantics -> Cq.t -> Database.t -> t
(** Copies the database (the caller's copy is never mutated) and enumerates
    the initial witnesses; the session is built on the first question. *)

val db : t -> Database.t
(** The instance's own database, reflecting all mutations so far.  Callers
    must not mutate it directly — use {!insert}/{!delete}. *)

val witnesses : t -> Eval.witness list
(** The maintained witness list.  Always equal to
    [Eval.witnesses (query t) (db t)] as a set of valuations (order
    differs: incrementally discovered witnesses are appended). *)

val insert : ?mult:int -> ?exo:bool -> t -> string -> int array -> Database.tuple_id
(** Inserts a tuple ({!Database.add} semantics: re-inserting an existing
    tuple bumps multiplicity and ORs [exo], with a stable id) and maintains
    the witnesses and the session. *)

val delete : t -> Database.tuple_id -> unit
(** Removes the tuple ({!Database.remove}), drops every witness using it
    and maintains the session.  No-op on an id that is not live. *)

val session : t -> Session.t
(** The session for the current database state, the one program every
    question on this instance runs on.  Do not hand it writes directly. *)
