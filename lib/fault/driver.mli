(** Applies a schedule to a running [Chunksim.Net].

    The driver owns the mechanical side of every fault: flipping
    interfaces, detaching node handlers, installing the control-plane
    wire filter, and keeping a {!Topology.Link_state} view current.
    Protocol-level recovery (detour failover, custody wipe/evacuation,
    trace events, conservation attribution) is layered on via the
    optional callbacks, which fire {e after} the mechanical effect so
    observers see the post-fault state. *)

type t

val install :
  ?link_state:Topology.Link_state.t ->
  ?on_link_flip:(int -> up:bool -> unit) ->
  ?on_node_crash:(Topology.Node.id -> Schedule.node_policy -> unit) ->
  ?on_node_restart:(Topology.Node.id -> unit) ->
  ?on_data_killed:(Chunksim.Packet.t -> unit) ->
  Chunksim.Net.t -> Schedule.t -> t
(** Mechanical semantics:

    - [Link_down]: {!Chunksim.Iface.set_down} with the event's policy;
      the link-state entry flips.
    - [Link_up]: {!Chunksim.Iface.set_up}; held packets resume.
    - [Node_crash]: the node's handler is saved and replaced by a sink
      that destroys every arriving packet ([on_data_killed] sees the
      Data ones, for conservation attribution); all the node's outgoing
      interfaces go down ([Wipe_custody] drops their queues,
      [Preserve_custody] holds them); every incident directed link is
      marked down in [link_state] so routers treat the dead node as
      unreachable.
    - [Node_restart]: handler restored, outgoing interfaces up,
      incident links marked up.
    - [Control_loss_burst]: a wire filter drops Request/Backpressure
      packets with the burst's probability (dice from
      {!Schedule.seed}); overlapping bursts compose by max loss.

    Crash/restart and down/up are idempotent per target.  The whole
    schedule is put on the net's engine at the call, one event per
    timed fault and one more for each burst's end; events at equal
    times fire in schedule order. *)

val link_downs : t -> int
val link_ups : t -> int
val node_crashes : t -> int
val node_restarts : t -> int

val control_drops : t -> int
(** Request/Backpressure packets swallowed by burst filters. *)

