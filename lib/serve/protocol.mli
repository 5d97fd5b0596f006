(** The wire protocol of [resil serve]: line-oriented JSON.

    One request object per line in, one response object per line out:

    {v
    -> {"id":1,"op":"load","data":"R(1,2)\nS(2,3)"}
    <- {"id":1,"ok":true,"result":{"tuples":2}}
    -> {"id":2,"op":"resilience","query":"R(x,y), S(y,z)"}
    <- {"id":2,"ok":true,"result":{"status":"solved","value":1,...}}
    -> {"id":3,"op":"nope"}
    <- {"id":3,"ok":false,"error":{"code":"unknown_op","message":"..."}}
    v}

    Requests carry a free-form ["id"] member that is echoed verbatim in the
    response (defaulting to [null]); a ["batch"] request carries sub-requests
    (one nesting level only) whose responses come back in order inside one
    response.  This module is pure decode/encode — the state machine lives
    in {!Engine}. *)

type question =
  | Resilience
  | Responsibility of string
  | Rank
  | Enumerate of string option
      (** [op:"enumerate"]: every minimum contingency set.  Without a
          ["tuple"] field the resilience family; with one, that tuple's
          responsibility family. *)

type ask = {
  query : string;  (** Conjunctive query text, e.g. ["R(x,y), S(y,z)"]. *)
  bag : bool;
  exact : bool;
  deadline_ms : int option;
      (** Per-request wall-clock budget.  A non-positive deadline is
          rejected up front ([timeout]) without touching the solver.  For
          [enumerate] it bounds the whole cut chain: on expiry the partial
          family streamed so far is returned with [exhausted:false]. *)
  jobs : int;
      (** Pool fan-out for [rank] and [enumerate] (0 = all domains),
          clamped at decode to {!Lp.Pool.default_jobs}. *)
  limit : int option;
      (** [enumerate] only: report at most this many sets.  Truncation is
          presentation-level — the family is enumerated (and counted)
          in full, then cut to the first [limit] sets of the canonical
          order, so the reply is a prefix of the unlimited one. *)
  question : question;
}

type request =
  | Ping
  | Load of string  (** Replace the database (text format of {!Relalg.Database_io}). *)
  | Insert of string  (** One tuple line, e.g. ["S(1,1) x2"]. *)
  | Delete of string
  | Ask of ask
  | Stats
  | Metrics of [ `Json | `Prometheus ]
      (** [op:"metrics"]: snapshot of the metrics plane (per-op latency
          histograms, cache gauges, counters).  The optional ["format"]
          field selects the exposition: ["json"] (default, structured
          result) or ["prometheus"] (text format 0.0.4 in a ["text"]
          member). *)
  | Shutdown
  | Batch of envelope list

and envelope = { id : Json.t; req : request }

type error_code =
  | Malformed  (** The line is not valid JSON. *)
  | Too_large  (** The line exceeds the server's payload cap. *)
  | Unknown_op
  | Bad_request  (** Valid JSON, known op, but wrong/missing fields. *)
  | Bad_query  (** The query text does not parse. *)
  | Not_found  (** Tuple not present (delete/responsibility). *)
  | Timeout  (** Deadline expired — carries the incumbent value if any. *)
  | Shutting_down  (** Admission refused: the server is draining. *)

val error_code_name : error_code -> string
(** The stable wire name, e.g. ["too_large"] — locked by a golden test. *)

type parse_result =
  | Request of envelope
  | Invalid of Json.t * error_code * string
      (** Recovered request id (or [Null]), error code, human message. *)

val parse_request : string -> parse_result
(** Never raises: malformed lines come back as [Invalid]. *)

val ok : id:Json.t -> Json.t -> Json.t
(** [{"id":id,"ok":true,"result":...}]. *)

val error : ?data:Json.t -> id:Json.t -> error_code -> string -> Json.t
(** [{"id":id,"ok":false,"error":{"code":...,"message":...[,"data":...]}}]. *)
