(** Structured event traces.

    Protocol layers record events; a trace stores none of them.  Each
    {!record} is handed, in attach order, to the taps registered with
    {!on_record} (counters, checkers, span collectors, NDJSON sinks —
    see [Obs.Sink]), and each tap keeps whatever state it needs. *)

(** An interface's phase (paper §3.3); [Inrpp.Phase] re-exports it. *)
type phase = Push_data | Detour | Backpressure

val phase_name : phase -> string
(** ["push-data"], ["detour"] or ["backpressure"]: the name the trace
    codec writes and reads. *)

(** The kind of a packet a router dropped; no router drops a
    back-pressure packet. *)
type packet = Data | Request

val packet_name : packet -> string
(** ["data"] or ["request"]: the name the trace codec writes and
    reads. *)

type event =
  | Dropped of {
      node : Topology.Node.id;
      link : int;
      packet : packet;
      flow : int;
      idx : int;
    }
      (** a router dropped a packet: every drop its [dropped] counter
          counts records one.  [idx] is a data packet's chunk index or
          a request's [nc]; [link] is the link that refused it, [-1]
          where there is none (custody refused it, or no flow state,
          next hop or local endpoint took it). *)
  | Cached of { node : Topology.Node.id; flow : int; idx : int }
  | Cache_hit of { node : Topology.Node.id; flow : int; idx : int }
  | Custody_released of { node : Topology.Node.id; flow : int; idx : int }
  | Detoured of { node : Topology.Node.id; flow : int; idx : int; via : Topology.Node.id }
  | Phase_change of { node : Topology.Node.id; link : int; phase : phase }
  | Bp_signal of { node : Topology.Node.id; flow : int; engage : bool }
  | Flow_complete of { flow : int; fct : float }
  | Link_fault of { link : int; up : bool }
  | Node_fault of { node : Topology.Node.id; up : bool }
  (** {b Chunk-lifecycle events} — the span substrate.  Layers record
      these only when {!lifecycle} is on (span tracing requested), so
      ordinary trace/check runs carry no extra events. *)
  | Enqueued of { node : Topology.Node.id; link : int; flow : int; idx : int }
      (** a data chunk was admitted to [link]'s output queue at [node] *)
  | Tx_begin of { link : int; flow : int; idx : int }
      (** serialisation onto the wire began.  With the lazy fast-path
          transmitter the begin instant may lie {e before} the record
          time (pops are performed lazily with virtual start times), so
          consumers must sort per-chunk events by their [t], not by
          record order. *)
  | Delivered of { node : Topology.Node.id; flow : int; idx : int }
      (** the chunk reached its consumer *)
  | Retransmit of { flow : int; idx : int }
      (** the sender re-originated the chunk (receiver stuck on a hole) *)
  | Custody_evacuated of { node : Topology.Node.id; flow : int; idx : int }
      (** custody drained onto a detour rather than the primary path *)
  | Custody_evicted of { node : Topology.Node.id; flow : int; idx : int }
      (** custody destroyed by a wipe-policy crash *)

type t

val create : unit -> t
(** A trace with no tap and lifecycle events off. *)

val set_lifecycle : t -> bool -> unit
(** Ask instrumented layers to record the chunk-lifecycle events
    (default off).  The flag is advisory: layers consult it via
    {!lifecycle} before building lifecycle records, so an untraced or
    span-free run pays nothing. *)

val lifecycle : t -> bool

val record : t -> time:float -> event -> unit

val on_record : t -> (float -> event -> unit) -> unit
(** Register a streaming tap: called synchronously on every {!record}
    with [(time, event)], after the taps registered before it.  Taps
    must not call {!record} on the same trace. *)

val pp_event : Format.formatter -> event -> unit
