(** Packets of the chunk-level simulator.

    Three kinds, following the paper's §3.2 node model:

    - {e Requests} carry the triple ⟨Nc, ACKc, Ac⟩: the next chunk the
      application needs, a cumulative acknowledgment, and the last
      anticipated chunk (data not explicitly requested yet that the
      sender may push).
    - {e Data} carries one content chunk.  [detour_route] is the
      source-routed remainder installed when a router deflects the
      chunk around a congested link (the paper's spoof-the-identifier
      tunnelling); [via_detour] marks chunks that left the primary
      path at least once.
    - {e Backpressure} engages or releases the closed-loop mode for a
      flow, travelling hop-by-hop towards the sender. *)

type header =
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
      anticipated : bool;         (** pushed ahead of an explicit request *)
      via_detour : bool;
      detour_route : Topology.Node.id list; (** remaining detour nodes to visit *)
      born : float;               (** sender timestamp (RTT sampling) *)
    }
  | Backpressure of {
      flow : int;
      engage : bool;   (** [true] = slow down, [false] = release *)
    }

type t = {
  header : header;
  size : float;        (** bits on the wire *)
}

val request : flow:int -> nc:int -> ack:int -> ac:int -> t
(** 50-byte header packet with an empty label stack (stateful
    forwarding).  @raise Invalid_argument if [ac < nc] or [nc < 0]. *)

val data :
  ?anticipated:bool -> ?detour_route:Topology.Node.id list -> flow:int ->
  idx:int -> born:float -> float -> t
(** [data ~flow ~idx ~born chunk_bits]: [via_detour] starts [false]; a
    router deflecting the chunk sets it.
    @raise Invalid_argument if [chunk_bits <= 0.] or [idx < 0]. *)

val backpressure : flow:int -> engage:bool -> t

val flow : t -> int
val is_data : t -> bool
val pp : Format.formatter -> t -> unit

val request_bits : float
(** Wire size of a request (50 bytes). *)

val backpressure_bits : float
(** Wire size of a back-pressure notification (50 bytes). *)
