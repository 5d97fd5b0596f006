(** The one JSON string escaper of the repo.

    Every JSON writer — the serve wire codec, the stats/trace/metrics
    exporters, the run-log and the CLI's [--json] output — escapes string
    contents here, so they all agree byte for byte: the double quote and the
    backslash are backslash-escaped, newline, carriage return and tab take their short
    forms, every other byte below 0x20 is written [\u00XX], and everything
    else (UTF-8 included) passes through unchanged. *)

val add_escaped : Buffer.t -> string -> unit
(** Append the escaped contents of a string, without the quotes. *)

val escape : string -> string
(** The escaped contents, without the quotes. *)
