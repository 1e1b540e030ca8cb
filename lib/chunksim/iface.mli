(** Output interface: serialises packets onto one directed link.

    Owns a bounded FIFO; transmits at link rate; delivers each packet
    to the far node after the propagation delay.

    The transmitter is a virtual clock: each transmitted packet costs
    exactly one engine event, its arrival at the far end.  Queue pops
    fall due lazily and are caught up by the next send, arrival or
    state read, so every observable — delivery order and times, queue
    occupancy, statistics — is that of an eager transmitter with a
    serialisation-complete event per packet.  Wire loss and outage
    kills are both decided in the arrival event. *)

type t

(** Queue discipline: first-in-first-out, or per-flow deficit round
    robin (the paper's router scheduler, see {!Rr_queue}). *)
type discipline =
  | Fifo_discipline
  | Drr of float  (** quantum, bits per flow per round *)

val create :
  ?queue_bits:float -> ?discipline:discipline ->
  ?loss:float * Sim.Rng.t -> Sim.Engine.t -> Topology.Link.t ->
  deliver:(Packet.t -> unit) -> t
(** [queue_bits] defaults to 64 chunks of 10 kB (≈ 5.1 Mbit);
    [discipline] defaults to FIFO.  [loss] injects random wire loss: each transmitted packet is
    discarded at its arrival instant with the given probability
    (failure-injection tests); default none.  The stream is drawn once
    per arrival that an outage did not already kill, in transmission
    order, so it should belong to this interface alone.  A lost packet
    still counts in {!tx_bits}, {!tx_packets} and {!utilisation}.
    @raise Invalid_argument on a non-positive queue or a loss
    probability outside [0, 1). *)

val link : t -> Topology.Link.t

val send : t -> Packet.t -> [ `Queued | `Dropped ]
(** Enqueue and start transmitting if idle. *)

val rate : t -> float
(** Transmit rate: the link's capacity, bps. *)

val queue_occupancy : t -> float
(** Bits waiting (not counting the packet on the wire). *)

val queue_capacity : t -> float
val busy : t -> bool

val utilisation : t -> now:float -> float
(** Fraction of elapsed time the transmitter was busy. *)

val tx_bits : t -> float
val tx_packets : t -> int
val drops : t -> int
val wire_losses : t -> int
(** Packets discarded by loss injection. *)

(** {1 Fault control}

    An interface starts up.  While down it refuses admission ([send]
    returns [`Dropped]), pops nothing from its queue, and destroys
    whatever was on the wire when the outage began — each such packet
    dies at its would-be arrival instant so fault accounting stays in
    event order. *)

val is_up : t -> bool

val set_down : ?policy:[ `Drop_queued | `Hold_queued ] -> t -> unit
(** Take the interface down (idempotent).  [`Drop_queued] (default)
    also flushes the queue through the fault tap; [`Hold_queued] keeps
    queued packets for transmission after {!set_up}. *)

val set_up : t -> unit
(** Bring the interface back up (idempotent) and restart transmission
    of any held packets. *)

val fault_drops : t -> int
(** Packets destroyed by outages: killed on the wire plus flushed from
    the queue. *)

val set_fault_tap : t -> (Packet.t -> unit) -> unit
(** Called once per fault-destroyed packet, at the instant it dies.
    Default: ignore. *)

(** {1 Observability taps} *)

val set_span_tap : t -> (float -> Packet.t -> unit) option -> unit
(** Span tracing: [f start p] fires when [p]'s serialisation begins,
    with the serialisation start time (which may lie before the
    engine's current time — the pop is performed lazily at the virtual
    transmitter's clock).  Default
    [None]; the disabled cost is one match per transmitted packet. *)

val set_profile_kind : t -> int -> unit
(** Kind id (see {!Sim.Engine.profile_kind}) claimed by this
    interface's arrival/serialisation events.  Default 0. *)
