(** The one JSON value type of the repo, with its printer, parser and
    string escaper.  The serve wire codec, the run-log, the metrics
    exposition and the CLI's [--json] output print through {!to_string};
    only {!Export}'s line-laid-out trace and stats writers format their own
    text, escaping strings with {!escape}.  Self-contained — the build adds
    no dependency for this.

    Printing is deterministic: object members keep their construction
    order, integers print as integers, and floats print with enough digits
    to round-trip (integral floats as [x.0]); a non-finite float prints as
    [null].  Strings escape the double quote and the backslash with a
    backslash, newline, carriage return and tab take their short forms,
    every other byte below 0x20 is written [\u00XX], and everything else
    (UTF-8 included) passes through unchanged.  Parsing accepts all of RFC
    8259 except non-finite numbers; [\u] escapes are decoded to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** One line, no trailing newline. *)

val escape : string -> string
(** The escaped contents of a JSON string, without the quotes. *)

val of_string : string -> t
(** @raise Parse_error on malformed input (including trailing garbage). *)

(** {1 Accessors} — shape-tolerant reads used by request decoding. *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects too. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
(** Accepts integral floats (JSON has one number type). *)

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
