(** Structured event traces.

    Protocol layers append events; tests and the demo examples read
    them back filtered.  Keeps at most [limit] most-recent events to
    bound memory in long runs. *)

type event =
  | Dropped of { node : Topology.Node.id; link : int; packet : string }
      (** a router refused a chunk into custody ([link] is [-1]) *)
  | Cached of { node : Topology.Node.id; flow : int; idx : int }
  | Cache_hit of { node : Topology.Node.id; flow : int; idx : int }
  | Custody_released of { node : Topology.Node.id; flow : int; idx : int }
  | Detoured of { node : Topology.Node.id; flow : int; idx : int; via : Topology.Node.id }
  | Phase_change of { node : Topology.Node.id; link : int; phase : string }
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

val create : ?limit:int -> unit -> t
(** [limit] defaults to 100_000 events. *)

val set_lifecycle : t -> bool -> unit
(** Ask instrumented layers to record the chunk-lifecycle events
    (default off).  The flag is advisory: layers consult it via
    {!lifecycle} before building lifecycle records, so an untraced or
    span-free run pays nothing. *)

val lifecycle : t -> bool

val record : t -> time:float -> event -> unit

val on_record : t -> (float -> event -> unit) -> unit
(** Register a streaming tap: called synchronously on every {!record}
    with [(time, event)], before the ring stores it.  Taps let events
    flow to sinks (files, counters, callbacks — see [Obs.Sink])
    without being bounded by the ring's [limit].  Taps must not call
    {!record} on the same trace. *)

val events : t -> (float * event) list
(** Oldest first. *)

val count : t -> (event -> bool) -> int
val find_all : t -> (event -> bool) -> (float * event) list
val clear : t -> unit
val pp_event : Format.formatter -> event -> unit
