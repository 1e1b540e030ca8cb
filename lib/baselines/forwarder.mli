(** Plain store-and-forward router for the baseline transports.

    Forwards requests towards the producer and data towards the
    consumer along fixed per-flow next hops.  No caches, no detours,
    no back-pressure: a full interface queue drops the packet — the
    loss signal AIMD-style transports rely on. *)

type t

val create : net:Chunksim.Net.t -> wires:int -> t
(** A router for wire flow ids [0 .. wires - 1]. *)

val install_flow :
  t -> flow:int -> data_link:Topology.Link.t option ->
  req_link:Topology.Link.t option -> unit

val set_local_producer : t -> (Chunksim.Packet.t -> unit) -> unit
val set_local_consumer : t -> (Chunksim.Packet.t -> unit) -> unit

val handler : t -> Chunksim.Net.handler
val originate_data : t -> Chunksim.Packet.t -> unit

val drops : t -> int
(** Data packets lost at this node (queue overflow or no route). *)
