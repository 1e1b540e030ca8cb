(** Minimal JSON values: enough for NDJSON export of metrics, trace
    events and timeseries, plus a parser so exports round-trip (the
    probe CLI and the tests both read their own output back).

    Numbers are printed with the shortest decimal representation that
    parses back to the same float, so [parse (to_string j) = Ok j]
    holds for every value this module itself produces. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no spaces outside strings). *)

val to_buffer : Buffer.t -> t -> unit

val parse : string -> (t, string) result
(** Parses one JSON value; trailing whitespace allowed, anything else
    after the value is an error.  Object key order is preserved. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing keys or non-objects. *)

(** Incremental NDJSON reader: one parsed value per line, read a line
    at a time — memory is bounded by the longest {e line}, never the
    file, so multi-gigabyte traces (the workload engine's replay
    input) read in constant space.

    Line discipline: ['\n'] terminates a line and a trailing ['\r'] is
    stripped (CRLF files read like LF ones); blank lines are skipped; a
    final line without a terminator is still yielded, so a truncated
    tail surfaces as that line's parse [Error] rather than silent
    loss. *)
module Reader : sig
  type json := t
  type t

  val of_channel : in_channel -> t
  (** Reads [ic] one line at a time with [In_channel.input_line]. *)

  val next : t -> (json, string) result option
  (** Next non-blank line's value; [Error] messages carry the 1-based
      line number.  [None] at end of input (and thereafter). *)

  val line_no : t -> int
  (** Lines consumed so far (blank lines included). *)
end

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
