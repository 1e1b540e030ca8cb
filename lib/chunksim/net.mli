(** Assembles a chunk-level network from a topology.

    One {!Iface} per directed link; per-node packet handlers installed
    by the protocol layer (router, sender, receiver logic live in
    {!Inrpp} and {!Baselines}).  Packets handed to {!send} queue on
    the interface of the chosen link and arrive at the far node's
    handler one transmission + propagation later. *)

type t

type handler = from:Topology.Link.t option -> Packet.t -> unit
(** [from] is the link the packet arrived on ([None] for locally
    injected packets). *)

val create :
  ?queue_bits:float -> ?discipline:Iface.discipline -> ?loss_rate:float ->
  Sim.Engine.t -> Topology.Graph.t -> t
(** Interface parameters are uniform; see {!Iface.create}.  All
    interfaces keep their packets on the wire in pages of one shared
    pool (see {!Sim.Engine.pool}).
    [loss_rate] injects seeded random wire loss on every link (default
    none).  Each interface draws from its own stream, split from one
    fixed seed in link-id order, so one link's loss decisions do not
    depend on traffic elsewhere. *)

val graph : t -> Topology.Graph.t
val engine : t -> Sim.Engine.t

val set_handler : t -> Topology.Node.id -> handler -> unit
(** Replaces the node's handler (default: drop silently). *)

val iface : t -> int -> Iface.t
(** By link id. *)

val iter_ifaces : t -> (Iface.t -> unit) -> unit
(** All interfaces in link-id order — the observability layer walks
    this to register per-interface gauges and timeseries probes. *)

val send : t -> via:Topology.Link.t -> Packet.t -> [ `Queued | `Dropped ]
(** Queue on the link's interface.  The packet will be delivered to
    [via.dst]'s handler. *)

val inject : t -> at:Topology.Node.id -> Packet.t -> unit
(** Run the node's handler directly (local origination), [from =
    None], on the current engine time. *)

val total_wire_losses : t -> int

(** {1 Fault plumbing} — used by [Fault.Driver]; all no-ops by default *)

val handler : t -> Topology.Node.id -> handler
(** The node's current handler (for save/restore around a crash). *)

val set_wire_filter : t -> (Topology.Link.t -> Packet.t -> bool) option -> unit
(** When the filter returns [true] for a packet handed to {!send}, the
    packet is swallowed (counted as a fault drop, reported [`Queued] to
    the sender — indistinguishable from wire loss).  Control-plane loss
    bursts install a filter matching only Request/Backpressure. *)

val set_fault_tap : t -> (Packet.t -> unit) -> unit
(** Install a per-packet fault tap on every interface
    (see {!Iface.set_fault_tap}). *)

val note_fault_kill : t -> unit
(** Count one fault-destroyed packet at net level (dead-node sinks). *)

val total_fault_drops : t -> int
(** Packets destroyed by faults: interface outage kills plus
    wire-filter swallows plus {!note_fault_kill} reports. *)

val mean_utilisation : t -> float
(** Mean over interfaces of busy-time fraction at the current engine
    time. *)
