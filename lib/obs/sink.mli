(** Pluggable trace sinks: stream {!Chunksim.Trace} events somewhere
    as they are recorded (the trace itself stores none).

    A sink is attached to a trace with {!attach}, which registers it
    as a {!Chunksim.Trace.on_record} tap.  Sinks compose by attaching
    several.  Typical composition for a probe run: NDJSON file +
    per-kind counter tap. *)

type t

val close : t -> unit
(** Flush/close underlying resources.  Idempotent for the built-in
    sinks. *)

val attach : t -> Chunksim.Trace.t -> unit

(** {1 Constructors} *)

val callback :
  ?close:(unit -> unit) -> (float -> Chunksim.Trace.event -> unit) -> t
(** [close] (default no-op) runs on {!close}. *)

val ndjson : out_channel -> t
(** One {!Trace_codec.to_json} object per line.  [close] flushes but
    does not close the channel (the caller owns it). *)

val counter_tap : Metric.t -> t
(** Registers one counter [trace_events_total{kind=...}] per event
    kind in the registry and bumps the matching one per event —
    allocation-free per event. *)
