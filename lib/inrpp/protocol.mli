(** End-to-end INRPP transfers over the chunk-level simulator.

    {!run} checks every flow spec and resolves its route, wires routers
    on every node and places flow state along the routes, attaches
    faults, a {!Sender} at each producer and a {!Receiver} at each
    consumer, and the observer's metrics; then it schedules the
    estimator ticks, custody drains and flow starts, runs the engine
    and collects the result.  This is the entry point of the
    protocol-behaviour experiments (`phases`, `backpressure`,
    `protocols`) and of the examples. *)

type flow_spec = Wiring.flow_spec = {
  src : Topology.Node.id;
  dst : Topology.Node.id;
  chunks : int;
  start : float;  (** seconds *)
  content : int option;
  (** popularity-cache key; two transfers of the same [content] hit
      each other's on-path copies when {!Config.t.icn_caching} is on *)
}

val flow_spec :
  ?start:float -> ?content:int -> src:Topology.Node.id ->
  dst:Topology.Node.id -> int -> flow_spec
(** [flow_spec ~src ~dst chunks]; [start] defaults to 0.
    @raise Invalid_argument if [chunks <= 0], [src = dst], [start] is
    negative or NaN, or [content] is negative or 2^31 or more. *)

val check_spec : string -> flow_spec -> unit
(** [check_spec who s] applies {!flow_spec}'s rule to a spec that may
    have been built by hand, as {!run} does to every spec it runs.
    @raise Invalid_argument ["who: <rule>"] if [s] breaks it. *)

val expand :
  Workload.Gen.spec option -> Topology.Graph.t -> flow_spec list ->
  flow_spec array
(** [expand workload g specs] is the flow list a run sees: [specs],
    then one flow per request [workload] generates on [g], its
    catalogue object as [content].  The stream is read in one pass
    ({!Workload.Gen.requests_seq}), with no intermediate list.
    @raise Invalid_argument as {!Workload.Gen.requests} does. *)

type flow_result = {
  spec : flow_spec;
  fct : float option;           (** completion time, [None] if unfinished *)
  chunks_received : int;
  duplicates : int;
  requests_sent : int;
}

type result = {
  flows : flow_result array;
  completed : int;
  sim_time : float;              (** when the run stopped *)
  total_drops : int;             (** interface + router drops *)
  forwarded_data : int;
  detoured : int;
  custody_stored : int;
  custody_released : int;
  bp_engages : int;
  bp_releases : int;
  cache_hits : int;               (** requests answered by on-path caches *)
  phase_transitions : int;
  peak_custody_bits : float;     (** max over routers and ticks *)
  mean_utilisation : float;
  goodput : float;               (** delivered application bits / sim_time *)
  engine_events : int;           (** events the engine processed *)
  chunks_lost_in_custody : int;
  (** custody chunks destroyed by [Wipe_custody] node crashes *)
  failovers : int;
  (** flows moved onto (or back off) detours by link outages *)
  recovery_time : float option;
  (** mean time from a disruption (link down / node crash) to the next
      chunk delivery anywhere; [None] when no faults fired *)
  shed : int;
  (** custody admissions refused by overload control (threshold
      shedding + policy rejections); 0 under the default
      {!Overload.Config.Off} *)
  detours_refused : int;
  (** pressure-refused detour requests: one per chunk sent to custody
      and one per drain round that fails to evacuate a held chunk;
      probes count none.  0 under the default {!Overload.Config.Off} *)
  collapse_episodes : int;
  (** collapse episodes the watchdog declared; 0 without a watchdog *)
  collapse_recovery_time : float option;
  (** mean time-to-recovery across recovered collapse episodes;
      [None] when no episode recovered (or no watchdog ran) *)
  flow_entries_live : int;
  (** flow-table entries still installed across all routers at the end
      of the run; 0 under PIT-less forwarding, and 0 after a fully
      completed run with [cfg.flow_teardown] on *)
  flow_entries_peak : int;
  (** summed per-router high-water marks of live entries *)
  flow_entries_recycled : int;
  (** released entries whose slot went back on a free list *)
  flow_table_bytes : int;
  (** approximate heap retained by the flow tables across all routers
      (see {!Router.flow_table_bytes}); ≈ 0 under PIT-less forwarding *)
}

val run :
  ?cfg:Config.t -> ?horizon:float -> ?trace:Chunksim.Trace.t ->
  ?loss_rate:float -> ?obs:Obs.Observer.t -> ?check:Check.Invariant.t ->
  ?faults:Fault.Schedule.t -> ?workload:Workload.Gen.spec ->
  ?overload:Overload.Config.t ->
  Topology.Graph.t -> flow_spec list -> result
(** [horizon] (default 60 s) bounds the run; the engine also stops as
    soon as every flow completes.  [loss_rate] injects seeded random
    wire loss on every link (failure-injection testing; default none).
    The routers drop too, each drop counted and traced: a custody
    refusal (full store, overload shedding, a duplicate copy), a
    mid-detour hop that cannot be queued, a packet for a flow or local
    endpoint the node does not hold, and custody a teardown purges.

    [trace] receives the run's events: the caller owns it and attaches
    its own taps ({!Chunksim.Trace.on_record}) before the run, and the
    trace stores nothing itself.  Without [trace], a run that is
    observed or checked records into a trace of its own, and any other
    run records nothing.

    [obs] instruments the run: router/interface/endpoint counters are
    registered as callback metrics (read at snapshot time — no
    hot-path cost), the observer's sinks are attached to the trace
    (the caller's [trace] when given, after its taps), and a
    sampler records per-interface phase ([iface_phase],
    [iface_phase_occupancy] per phase label), anticipated rate
    ([iface_anticipated_bps]/[_ratio]), queue and utilisation series
    plus per-node [custody_bits], [bp_active_flows] and
    [detoured_total] at interval [Config.ti] (or the observer's
    override).

    [check] enforces runtime invariants throughout the run:
    phase-transition legality, back-pressure ordering and chunk
    conservation are taps on the same trace, and the
    custody-ledger probe rides the estimator tick.  Inspect the
    collector with [Check.Invariant.ok]/[report] after the run.

    [faults] replays a {!Fault.Schedule} against the run: link
    outages fail flows over onto detours (or engage back-pressure when
    no path survives), node crashes detach handlers and wipe or
    preserve custody, and control-loss bursts stress the request
    plane.  Custody lost to [Wipe_custody] crashes and packets destroyed on
    dead links are attributed to the conservation checker (when
    [check] is given) rather than reported as leaks.  An empty or
    absent schedule leaves the run bit-identical to a build without
    fault support.

    [workload] appends generated flows (Zipf catalogue, open-loop
    Poisson sessions — see {!Workload.Gen}) behind the static list;
    each request's catalogue object becomes the flow's [content] key,
    so a hot catalogue exercises the popularity region of the content
    stores when [cfg.icn_caching] is on.  Generation is a pure
    function of [(workload, g)], so runs stay bit-replayable.  The
    static list may be empty when a workload is given.  The request
    stream is consumed lazily ({!Workload.Gen.requests_seq}), so very
    long workloads never materialise an intermediate request list.

    With [cfg.pitless] no router flow state is installed at all: the
    sender stamps each data packet with the remaining path as a
    source-routed label stack (and the receiver its requests with the
    reverse), routers pop labels instead of consulting the flow table,
    and everything the paper builds on that state — custody, detours,
    back-pressure — is structurally off.  Route reconvergence
    re-stamps the label stacks instead of rerouting router entries.
    With [cfg.flow_teardown] a completed flow's entries are released
    (and their slots recycled) at every node the flow was installed
    on, including nodes added by reconvergence.

    [overload] (default {!Overload.Config.Off}) configures the
    graceful-degradation layer ({!Overload.Config}): pluggable custody
    admission at every router, load shedding and early back-pressure
    above the layer's store pressures, refusal of detours into
    pressured neighbours, the receiver-side retransmission circuit
    breaker, and the collapse watchdog (whose episodes dump the
    observer's flight recorder when one is armed).  Under [Off] every
    mechanism is disabled and the run is the paper's protocol; its
    metric set still carries [router_shed_total] and
    [router_detours_refused_total], reading 0.
    @raise Invalid_argument on an invalid config, no flows at all
    (empty static list and no or empty workload), a spec that
    {!flow_spec} would reject (hand-built specs included), or an
    unroutable flow. *)

val pp_result : Format.formatter -> result -> unit
