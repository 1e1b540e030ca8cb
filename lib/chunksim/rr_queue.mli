(** Deficit round-robin queue — the paper's router scheduler.

    "Routers do not maintain per-flow queues, but have a scheduler
    which multiplexes data … in a round-robin fashion" (§3.3).  DRR
    approximates that with one lightweight sub-queue per traffic class
    (we classify by flow id) and a byte deficit per class, giving each
    backlogged class an equal share of the transmitter regardless of
    arrival pattern — unlike FIFO, where a bursty flow crowds others
    out.

    The byte budget is shared: a packet is tail-dropped when the whole
    structure is full, like {!Fifo}. *)

type t

val create : ?quantum:float -> capacity:float -> unit -> t
(** [quantum] bits of service per class per round (default one 10 kB
    chunk).  @raise Invalid_argument if either is non-positive. *)

val push : t -> class_id:int -> Packet.t -> [ `Queued | `Dropped ]

val take : t -> Packet.t
(** Remove and return the next packet under DRR order.
    @raise Invalid_argument if the queue is empty. *)

val occupancy : t -> float
val capacity : t -> float
val is_empty : t -> bool
(** No packet queued. *)

val total_dropped : t -> int
