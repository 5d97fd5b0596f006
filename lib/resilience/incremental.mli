open! Relalg

(** A maintained resilience instance: one (query, database) pair kept alive
    across tuple inserts and deletes.  It borrows the caller's database,
    which any number of instances may share, and keeps the witness list,
    by delta-joins ({!Eval.delta_insert}), and one {!Session.t}; every
    question is a {!Session} call on {!session}.

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
(** Borrows the database (no copy) and enumerates the initial witnesses;
    the session is built on the first question. *)

val db : t -> Database.t
(** The borrowed database, physically the one given to {!create}.  Mutate
    it only through {!insert}/{!delete}. *)

val witnesses : t -> Eval.witness list
(** The maintained witness list.  Always equal to
    [Eval.witnesses (query t) (db t)] as a set of valuations (order
    differs: incrementally discovered witnesses are appended). *)

val insert :
  ?mult:int -> ?exo:bool -> Database.t -> t list -> string -> int array -> Database.tuple_id
(** Inserts a tuple into the database once ({!Database.add} semantics:
    re-inserting an existing tuple bumps multiplicity and ORs [exo], with a
    stable id), then maintains every listed instance; list every instance
    over the database, or the unlisted ones go stale.
    @raise Invalid_argument as {!Database.add} (nothing is mutated then),
    or if a listed instance borrows another database. *)

val delete : Database.t -> t list -> Database.tuple_id -> unit
(** Removes the tuple once ({!Database.remove}), then maintains every
    listed instance, dropping the witnesses that used it.  No-op on an id
    that is not live.  @raise Invalid_argument as {!insert}. *)

val session : t -> Session.t
(** The session for the current database state, the one program every
    question on this instance runs on.  Do not hand it writes directly. *)
