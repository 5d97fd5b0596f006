open! Relalg

(** The one JSON form of an answer, printed by the CLI's [--json] output and
    by the serve replies alike, so both agree on every field by
    construction.  Tuples print as {!Database_io.print_tuple} shows them. *)

type question = Res | Rsp

val res : Database.t -> Session.res_answer -> Obs.Json.t
(** [{"status":"solved","value","contingency","stats"}]. *)

val rsp : Database.t -> Session.rsp_answer -> Obs.Json.t
(** As {!res}, with ["responsibility"] [1/(1+value)] after the value. *)

val family : Database.t -> shown:Database.tuple_id list list -> Enumerate.family -> Obs.Json.t
(** [{"status":"solved","value","count","exhausted","sets","criticality",
    "stats"}]: [sets] lists the [shown] sets (a surface's truncation or
    order), [count] and the criticality table cover the whole family. *)

val outcome : question -> ('a -> Obs.Json.t) -> 'a Session.outcome -> Obs.Json.t
(** A solved answer as the given printer makes it, otherwise a status
    object: a false query is [{"status":"query_false","value":0}] for
    [Res] (resilience 0) and [{"status":"query_false"}] for [Rsp];
    ["no_contingency"] and ["budget_exhausted"] carry no other field.
    Serve matches an exhausted budget first: it replies [timeout]. *)

val rank_row :
  Database.t -> ?criticality:float -> Database.tuple_id * int * float -> Obs.Json.t
(** [{"tuple","k","responsibility"}], and ["criticality"] when given. *)
