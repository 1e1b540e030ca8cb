(** Serialisation of {!Chunksim.Trace} events to JSON — the wire
    format of the streaming {!Sink}s and the probe CLI. *)

val kind : Chunksim.Trace.event -> string
(** Stable snake_case tag, e.g. ["phase_change"]. *)

val to_json : time:float -> Chunksim.Trace.event -> Json.t
(** [{"type":"event","t":...,"kind":...,...}] with only the fields the
    variant carries. *)

val of_json : Json.t -> (float * Chunksim.Trace.event, string) result
(** Inverse of {!to_json}: [(time, event)].  A [null] time parses as
    NaN — the printer writes NaN as [null] (JSON has no NaN literal),
    so the pair round-trips.  A kind, phase or dropped-packet name it
    does not know is an [Error]. *)

