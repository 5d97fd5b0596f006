(** Database instances under set or bag semantics.

    A database holds relations of integer tuples.  Each distinct tuple gets a
    stable {!tuple_id}; bag semantics is represented by a per-tuple
    multiplicity (Lemma 4.1 of the paper justifies one decision variable per
    distinct tuple).  Tuples may individually be flagged {e exogenous}
    (Definition 3.3), in which case they can never enter a contingency set.

    Databases are mutable builders; evaluation (see {!Eval}) treats them as
    immutable snapshots and builds per-query indexes lazily. *)

type t

type tuple_id = int

type tuple_info = {
  id : tuple_id;
  rel : string;
  args : int array;
  mult : int;  (** Number of copies under bag semantics; [>= 1]. *)
  exo : bool;
}

val create : ?symbols:Symbol.t -> unit -> t

val symbols : t -> Symbol.t

val arity : t -> string -> int option
(** The arity fixed by the relation's first inserted tuple; [None] for a
    relation that never held one. *)

val add : ?mult:int -> ?exo:bool -> t -> string -> int array -> tuple_id
(** Inserts a tuple.  Re-inserting an existing tuple adds to its
    multiplicity and ORs the exogenous flag; the id is stable.
    @raise Invalid_argument if [mult < 1] or on an arity clash. *)

val add_named : ?mult:int -> ?exo:bool -> t -> string -> string array -> tuple_id
(** Like {!add} but interning constants through the symbol table. *)

val remove : t -> tuple_id -> unit
(** Removes all copies of a tuple.  The id is retired, not reused. *)

val set_exo : t -> tuple_id -> bool -> unit
val set_mult : t -> tuple_id -> int -> unit

val find : t -> string -> int array -> tuple_id option

val tuple : t -> tuple_id -> tuple_info
(** @raise Not_found if the tuple was removed. *)

val mem : t -> tuple_id -> bool

val tuples : t -> tuple_info list
(** All live tuples, in insertion order. *)

val tuples_of : t -> string -> tuple_info list
(** Live tuples of one relation, in insertion order. *)

val rel_names : t -> string list

val num_tuples : t -> int
(** Number of live distinct tuples. *)

val total_multiplicity : t -> int

val copy : t -> t
(** Deep copy sharing the symbol table; tuple ids are preserved. *)

val restrict : t -> (tuple_info -> bool) -> t
(** Copy containing only tuples satisfying the predicate (ids preserved). *)

val fingerprint : t -> int64
(** A 64-bit digest of the live contents (relations, args, multiplicities,
    exogeneity flags and tuple ids, in insertion order).  Two databases
    with equal fingerprints answer every resilience question identically —
    ids included, so the serve session cache can key on (query,
    fingerprint) and phrase answers in tuple ids.  Mutating the database
    changes the fingerprint (modulo the usual 64-bit collision caveat). *)

val max_const : t -> int
(** Largest integer constant in use (0 for an empty database). *)

val pp : Format.formatter -> t -> unit
