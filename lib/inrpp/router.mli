(** INRPP router (paper §3.3).

    Per outgoing interface the router runs an anticipated-rate
    estimator and a phase machine; data is forwarded at line rate in
    push-data, deflected onto detour paths (flowlet granularity,
    source-routed to the rejoin node) in detour, and taken into
    custody with an explicit upstream notification in back-pressure.
    Custody drains back onto the primary interface as soon as it has
    room, and the notification is released once the store falls below
    its low watermark.

    A router also relays the two endpoint roles: requests reaching the
    producer node go to the local {!Sender}, data reaching the
    consumer node goes to the local {!Receiver}.

    Under it sit three library-private layers, each calling only down:
    [Port] (the per-interface control plane and the {!registry}),
    [Router_state] (the router record and the drop, signalling and send
    primitives) and [Custody] (the custody ledger). *)

type t

type counters = {
  mutable forwarded_data : int;
  mutable detoured : int;
  mutable custody_stored : int;
  mutable custody_released : int;
  mutable dropped : int;
  (* every router drop; with a trace attached each also records a
     [Chunksim.Trace.Dropped] event at this node *)
  mutable bp_engages : int;
  mutable bp_releases : int;
  mutable cache_hits : int;
  mutable failovers : int;      (* flows moved onto detours by an outage *)
  mutable custody_wiped : int;  (* custody chunks lost to crashes *)
  mutable shed : int;           (* admissions refused by overload control *)
  mutable detours_refused : int;
  (* pressure-refused detour requests: one per chunk sent to custody, one
     per drain round failing to evacuate a held chunk; probes count none *)
}

type registry
(** A run's periodic-work registry: the count of estimator intervals
    closed so far, and the routers a tick or a drain has work at.  The
    protocol layer builds one per run and drives every router's ticks
    and drains through it ({!tick_sweep}, {!drain_sweep}); it is a few
    arrays sized by the node count. *)

val registry : nodes:int -> registry
(** A registry for routers with node ids below [nodes].
    @raise Invalid_argument if [nodes < 1]. *)

type contents
(** A run's content keys by flow, each checked once for every router
    the run builds. *)

val contents : int array -> contents
(** [contents keys] holds [keys.(flow)] as [flow]'s content key.  The
    array is kept, not copied.
    @raise Invalid_argument if a key is outside [0, 2^31), the range
    in which [Chunksim.Chunk_key.pack] orders a key. *)

val create :
  cfg:Config.t -> net:Chunksim.Net.t -> node:Topology.Node.id ->
  detours:Detour_table.t -> ?link_state:Topology.Link_state.t ->
  ?trace:Chunksim.Trace.t -> ?overload:Overload.Config.t ->
  ?registry:registry -> ?contents:contents -> unit -> t
(** [detours] bounds the detour depth: every candidate it lists may
    be taken.  [link_state] is the link view the router reads: detour candidates
    with a down hop are unusable, and a down primary interface routes
    through the detour set.  It defaults to a fresh all-up view of the
    net's graph, which nothing flips.  [overload] (default
    {!Overload.Config.Off}) configures overload control: under [On]
    the admission policy guards the custody store, admissions shed
    above {!Overload.Config.shed_threshold}, back-pressure engages
    early at {!Overload.Config.early_bp_threshold}, and detours into
    pressured neighbours are refused (see {!set_neighbor_pressure}).
    [registry] enrols the router in a run's registry; without it the
    router keeps its own interval count, advanced by {!tick}.
    [contents] gives each flow's content key, the popularity cache's
    key under [icn_caching]; a flow past its end (every flow, by
    default) keys on its own id.  A run hands all its routers one
    [contents].
    @raise Invalid_argument if [node] is outside [registry]. *)

val set_neighbor_pressure : t -> (Topology.Node.id -> float) -> unit
(** Install the neighbour custody-occupancy oracle (fraction of store
    capacity, by node id) used to refuse detours into pressured
    neighbours.  Installed by the protocol layer, which owns the
    router array; stands in for the paper's periodic utilisation
    exchange between one-hop neighbours.  A detour is refused when
    its first neighbour's fraction is at or above
    {!Overload.Config.neighbor_pressure}; the protocol layer installs
    the oracle only under overload control. *)

val install_flow :
  t -> flow:int -> data_link:Topology.Link.t option ->
  req_link:Topology.Link.t option -> unit -> unit
(** [data_link]: next hop towards the consumer ([None] at the
    consumer).  [req_link]: next hop towards the producer ([None] at
    the producer).  Both next hops must be out-links of this router's
    node: the flow table stores each as the index of its port, [flow]
    at int32 and port indices at u16.
    @raise Invalid_argument if a next hop does not leave this node,
    before anything is written, or if a value is outside its width. *)

val reroute_flow :
  t -> flow:int -> data_link:Topology.Link.t option ->
  req_link:Topology.Link.t option -> unit -> unit
(** Route reconvergence after an outage: like {!install_flow} but
    preserves the entry's back-pressure and flowlet state when the
    flow is already installed.  Rerouting onto a live data link clears
    the outage condition (fail-over flag, outage back-pressure).
    @raise Invalid_argument as {!install_flow} does, before anything
    is written. *)

val release_flow : t -> flow:int -> unit
(** Tear down the flow's table entry and recycle its slot (free-list,
    see {!Flow_table}).  Silent — no upstream back-pressure signalling:
    the flow is finished and its sender is about to go quiet on its
    own.  Custody still held for the flow can only be duplicate copies
    (the consumer acknowledged every chunk), so they are purged and
    counted as drops, keeping the custody ledger balanced.  No-op when
    the flow is not installed; safe while crashed. *)

val set_local_producer : t -> (Chunksim.Packet.t -> unit) -> unit
val set_local_consumer : t -> (Chunksim.Packet.t -> unit) -> unit

val handler : t -> Chunksim.Net.handler
(** Install into the {!Chunksim.Net} node slot. *)

val originate_data : t -> Chunksim.Packet.t -> unit
(** Entry point for the local sender: forwards through this router's
    own phase/detour/custody logic. *)

val tick : t -> unit
(** Close an estimator interval on a router created without a
    registry and update its interface phases, in ascending link-id
    order.  Schedule every [Config.ti].  Only interfaces on the walk are
    stepped: an interface joins it when it notes bits and leaves it
    when a tick finds it idle in push-data, where every later tick
    would only decay r_a (its phase cannot change).  Those decays are
    replayed, bit for bit, when the estimator is next noted or read
    ({!anticipated_rate_of_link}, {!ratio_of_link}), so an idle
    interface costs a tick nothing.  The detour probe runs only where
    the phase machine reads it.
    @raise Invalid_argument if the router belongs to a registry. *)

val tick_sweep : registry -> t array -> unit
(** {!tick} for a whole run: advance the registry's interval count,
    then step the routers with an interface on the walk, in ascending
    node id.  [routers] is indexed by node id and holds every router of
    the registry. *)

val drain : t -> unit
(** Move custody chunks onto primary interfaces with queue room (or
    onto detours when the primary is down or full) and release
    back-pressure when the store empties below the low watermark.
    Schedule a few times per [Config.ti].  Flows are served one chunk per
    round in ascending flow id, a round visiting only the flows the
    previous one left able to release, until a round releases nothing.
    A drain target that refuses admission (full or down) leaves the
    chunk in custody — chunks are never leaked.  No-op while crashed. *)

val drain_sweep : registry -> t array -> unit
(** {!drain} every router that holds custody or has a local
    back-pressure engage outstanding, in ascending node id; every other
    router's drain would do nothing.  [routers] as for {!tick_sweep}. *)

val iter_custody : registry -> t array -> (t -> unit) -> unit
(** Apply to the routers {!drain_sweep} would visit, in ascending node
    id.  Every other router holds no custody and its custody occupancy
    is exactly 0. *)

(** {1 Fault recovery} *)

val on_link_flip : t -> up:bool -> unit
(** Notify the router that some link just went down ([up = false]) or
    came back up.  On a down flip every flow whose primary interface is
    down fails over to surviving detours (counted in [failovers]) or,
    when no path remains, engages back-pressure towards the sender; on
    an up flip flows return to recovered primaries, releasing outage
    back-pressure.  Either way held custody drains at once, so custody
    for a dead next-hop evacuates at the outage instant. *)

val crash : t -> policy:Fault.Schedule.node_policy -> (int * int) list
(** Crash this router: control state (estimators, phases,
    back-pressure flags) is always lost; [Wipe_custody] also empties
    the custody store and returns the wiped [(flow, idx)] list, each
    held chunk once in ascending order, for fault attribution;
    [Preserve_custody] models non-volatile custody.
    {!tick} and {!drain} are no-ops until {!restart}.  Idempotent. *)

val restart : t -> unit
val is_crashed : t -> bool

val phase_of_link : t -> int -> Phase.phase option
(** Current phase of the interface for the given link id; [None] when
    the link does not leave this node, or its interface has neither
    forwarded a chunk nor been ticked with a live estimator since
    creation or the last {!crash}. *)

val anticipated_rate_of_link : t -> int -> float option
(** Smoothed r_a of the interface's estimator as of the last tick, bps;
    [None] as for {!phase_of_link}.  First replays the idle intervals
    ticks skipped while the interface was off the walk (see {!tick}),
    so the value equals the one an eager per-tick decay gives. *)

val ratio_of_link : t -> int -> float option
(** r_a / capacity — the phase-machine input; replays skipped idle
    intervals first, as {!anticipated_rate_of_link}. *)

val estimator_links : t -> int list
(** Link ids with live estimators (i.e. interfaces that carried this
    router's data or requests), ascending — the observability layer's
    per-interface probe set. *)

val bp_active_flows : t -> int
(** Flows for which this router currently has back-pressure engaged
    (locally originated or relayed upstream). *)

(** {1 Flow-table occupancy} *)

val flow_entries_live : t -> int
(** Flow-table entries installed right now. *)

val flow_entries_peak : t -> int
(** High-water mark of {!flow_entries_live} over the router's life. *)

val flow_entries_recycled : t -> int
(** Releases whose slot went back on the free list ({!release_flow}
    calls that found the flow installed). *)

val flow_table_bytes : t -> int
(** Approximate heap footprint of the flow table (slot pages + index
    + the flowlet pages of pages that pinned; see DESIGN §14 for the
    accounting). *)

val cache : t -> Chunksim.Cache.t
val counters : t -> counters
val node : t -> Topology.Node.id

val custody_ledger : t -> int * int
(** [(packets, backlog)]: the chunks in the custody packet table, and
    the store's custody backlog summed over its custody flows.  The two
    are equal after every step; [Check]'s ledger invariant reads this
    pair. *)

val phase_transitions : t -> int
(** Summed across interfaces. *)
