(** Data sender (producer endpoint), paper §3.2.

    Two modes.  {e push-data}: every request ⟨Nc, ACKc, Ac⟩ invites
    the sender to push all chunks up to Ac — requested plus
    anticipated.  Pushing is paced at the sender's outgoing-link rate
    (the open loop sends "as much data as the outgoing link can
    carry", not an instantaneous dump): invited chunks join a pending
    backlog serviced one transmission time apart.  {e back-pressure}:
    after an engage notification the backlog freezes and the sender
    ships exactly one chunk per request (1-to-1 flow balance) until
    released.  Retransmissions (a request repeating the previous Nc,
    i.e. the receiver is stuck on a hole) bypass the backlog and are
    rate-limited per chunk. *)

type t

val create :
  cfg:Config.t -> eng:Sim.Engine.t ->
  ?trace:Chunksim.Trace.t ->
  flow:int -> total_chunks:int -> pace_rate:float ->
  transmit:(Chunksim.Packet.t -> unit) -> unit -> t
(** [pace_rate]: bits per second at which the backlog drains —
    normally the capacity of the producer's outgoing link.
    [transmit] hands a data packet to the local router.  [trace]
    receives lifecycle-gated [Retransmit] events (see
    {!Chunksim.Trace.set_lifecycle}).
    @raise Invalid_argument if [total_chunks <= 0] or
    [pace_rate <= 0.]. *)

val handle : t -> Chunksim.Packet.t -> unit
(** Process a Request or Backpressure packet addressed to this flow;
    other packets and other flows are ignored. *)

val backlog : t -> int
(** Invited chunks not yet transmitted. *)

val sent_packets : t -> int
(** Data packets transmitted, retransmissions included. *)

val in_backpressure : t -> bool
