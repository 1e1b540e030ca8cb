(** The one run skeleton of the baseline transports.

    {!run} checks every flow spec, builds the store-and-forward network
    (up to [paths_per_flow] link-disjoint paths per flow, one wire flow
    id per path), installs the faults, the per-flow sessions and
    completion bookkeeping, the producer and consumer endpoints and the
    observer's metrics; then it schedules the flow starts, runs the
    engine and assembles the {!Run_result.t}.  A protocol supplies only
    its receivers: the pull window ({!Puller}) for {!Aimd} and
    {!Mptcp}, rate pacing for {!Rcp}, request shapers for {!Hbh}. *)

type flow = {
  spec : Inrpp.Protocol.flow_spec;
  sess : Inrpp.Session.t;  (** the chunks delivered so far *)
  wires : int array;
      (** wire flow id of each subflow; ids run densely from 0 in flow
          then subflow order *)
  paths : Topology.Path.t array;  (** the path of each subflow *)
}

type env = {
  eng : Sim.Engine.t;
  net : Chunksim.Net.t;
  forwarders : Forwarder.t array;
      (** per node; each is the node's handler unless a protocol
          replaces it with {!Chunksim.Net.set_handler} *)
  chunk_bits : float;
  flows : flow array;
  every : float -> (unit -> unit) -> unit;
      (** [every interval f] runs [f] every [interval] seconds, from
          before the first flow start until every flow has completed *)
}

type receiver = {
  start : unit -> unit;  (** at the flow's start time *)
  on_data : subflow:int -> int -> [ `New | `Duplicate ] -> unit;
      (** chunk [idx] arrived on [subflow] of a flow that was
          incomplete, with the session's verdict on it; called after
          the harness's completion bookkeeping *)
  retransmissions : unit -> int;
  metrics : (string * (unit -> float)) list;
      (** per-flow callback metrics, registered in this order *)
  series : (string * (unit -> float)) list;
      (** per-flow sampled series, tracked in this order before the
          shared [chunks_received] *)
}

val request : env -> flow -> subflow:int -> nc:int -> ack:int -> unit
(** Inject at the flow's consumer a request for chunk [nc] on
    [subflow]'s wire. *)

val run :
  protocol:string -> paths_per_flow:int -> ?chunk_bits:float ->
  ?queue_bits:float -> ?horizon:float -> ?obs:Obs.Observer.t ->
  ?faults:Fault.Schedule.t -> (env -> receiver array) -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** [run ~protocol ~paths_per_flow receivers g specs] calls
    [receivers] once, after the network and sessions exist, for one
    receiver per flow in [env.flows] order.  Defaults: 10 kB chunks,
    64-chunk queues, 120 s horizon.

    Faults apply mechanically: interfaces flip, crashed nodes destroy
    arriving packets, bursts drop control traffic.  The baselines have
    no in-network recovery, so their response is whatever their
    end-to-end loss recovery does, which is what the resilience
    experiment compares.

    [obs] instruments the run, every metric and series labelled
    [("protocol", protocol)]: per-flow [chunk_queueing_delay_seconds]
    histograms (arrival minus send time minus the subflow path's
    unloaded latency), a [flow_fct_seconds] histogram, callback
    metrics [forwarder_drops_total] per node and [iface_tx_bits_total],
    [iface_drops_total] and [iface_queue_bits] per link, sampled
    [iface_queue_bits] and [iface_utilisation] per link, then each
    flow's [receiver.metrics], [receiver.series] and
    [chunks_received].  The sampler runs at [horizon /. 200.] unless
    the observer sets an interval.  The baseline stack has no packet
    trace, so the observer's sinks are not attached.
    @raise Invalid_argument if [paths_per_flow < 1], there are no
    flows, a spec breaks {!Inrpp.Protocol.check_spec}'s rule, or a
    flow is unroutable. *)
