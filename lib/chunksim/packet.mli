(** Packets of the chunk-level simulator.

    Three kinds, following the paper's §3.2 node model:

    - {e Requests} carry the triple ⟨Nc, ACKc, Ac⟩: the next chunk the
      application needs, a cumulative acknowledgment, and the last
      anticipated chunk (data not explicitly requested yet that the
      sender may push).
    - {e Data} carries one content chunk.  [detour_route] is the
      source-routed remainder installed when a router deflects the
      chunk around a congested link (the paper's spoof-the-identifier
      tunnelling).
    - {e Backpressure} engages or releases the closed-loop mode for a
      flow, travelling hop-by-hop towards the sender.

    A packet is one block: 6 words for data, 6 for a request and 3 for
    back-pressure, headers included.  Only data stores its size; the
    other two kinds are {!control_bits} long. *)

type t =
  | Request of {
      flow : int;
      nc : int;        (** next chunk the application requests *)
      ack : int;       (** cumulative: all chunks < ack received *)
      ac : int;        (** last anticipated chunk (>= nc) *)
      route : Topology.Node.id list;
      (** PIT-less label stack: remaining nodes to the producer,
          stamped at the consumer and popped hop by hop.  Empty
          (and ignored) under stateful forwarding. *)
    }
  | Data of {
      flow : int;
      idx : int;                  (** chunk index within the flow *)
      detour_route : Topology.Node.id list; (** remaining detour nodes to visit *)
      born_bits : int;
      (** sender timestamp (RTT sampling), as the IEEE bits of a
          non-negative float held unboxed; read it with {!born_of_bits} *)
      size : float;               (** bits on the wire *)
    }
  | Backpressure of {
      flow : int;
      engage : bool;   (** [true] = slow down, [false] = release *)
    }

val control_bits : float
(** Bits on the wire of a request or a back-pressure packet: a 50-byte
    header. *)

val request : flow:int -> nc:int -> ack:int -> ac:int -> t
(** Request with an empty label stack (stateful forwarding).
    @raise Invalid_argument if [ac < nc] or [nc < 0]. *)

val data :
  ?detour_route:Topology.Node.id list -> flow:int -> idx:int -> born:float ->
  float -> t
(** [data ~flow ~idx ~born chunk_bits].  [born] is kept exactly (a
    [-0.] reads back as [0.]), as [born_bits].
    @raise Invalid_argument if [chunk_bits <= 0.], [idx < 0], or [born]
    is negative or NaN. *)

val born_of_bits : int -> float
(** The sender timestamp a data packet's [born_bits] holds. *)

val backpressure : flow:int -> engage:bool -> t

val vacant : t
(** A packet no node ever sends.  Packet rings write it over each slot
    they vacate, so they keep no delivered packet alive. *)

val size : t -> float
(** Bits on the wire. *)

val flow : t -> int
val is_data : t -> bool
