(** Bounded drop-tail byte queue for interface buffers.

    Capacity is in bits; a packet that would overflow is dropped whole
    (tail drop), the baseline transports' loss signal.  Counters track
    totals for the experiment reports.  Packets sit in a ring, so
    neither {!push} nor {!take} allocates once the ring has grown, and
    {!take} clears the slot it empties, so the ring keeps no taken
    packet alive. *)

type t

val create : capacity:float -> t
(** @raise Invalid_argument if [capacity <= 0.]. *)

val push : t -> Packet.t -> [ `Queued | `Dropped ]

val peek : t -> Packet.t
(** The oldest packet, left queued.
    @raise Invalid_argument if the queue is empty. *)

val take : t -> Packet.t
(** Remove and return the oldest packet.
    @raise Invalid_argument if the queue is empty. *)

val occupancy : t -> float
(** Bits currently queued. *)

val is_empty : t -> bool
val capacity : t -> float

(** {1 Lifetime counters} *)

val total_dropped : t -> int
