(** One INRPP run's state (private): routes, the net, the routers and
    their registry, flow placement and the fault driver's recovery
    callbacks.  {!Endpoints} and {!Protocol} read it. *)

type flow_spec = {
  src : Topology.Node.id;
  dst : Topology.Node.id;
  chunks : int;
  start : float;
  content : int option;
}
(** Re-exported as {!Protocol.flow_spec}. *)

type t = {
  cfg : Config.t;
  g : Topology.Graph.t;
  overload : Overload.Config.t;
  specs : flow_spec array;
  routes : Topology.Path.t array;
  eng : Sim.Engine.t;
  net : Chunksim.Net.t;
  ins : Instrumentation.t option;
  link_state : Topology.Link_state.t;
  registry : Router.registry;
  routers : Router.t array;
  fcts : float option array;
  data_routes : int list array;
  req_routes : int list array;
  (** PIT-less label stacks towards the consumer and the producer *)
  install_sites : int list array;
  (** every node a flow's state was placed on: the teardown set *)
  mutable completed : int;
  mutable finished_at : float option;
  mutable pending_disruptions : float list;
  (** disruptions not yet followed by a delivery *)
  mutable recovery_total : float;
  mutable recovery_count : int;
  mutable peak_custody : float;
}

val all_done : t -> bool

val wire :
  cfg:Config.t -> horizon:float -> trace:Chunksim.Trace.t option ->
  loss_rate:float option -> obs:Obs.Observer.t option ->
  check:Check.Invariant.t option -> overload:Overload.Config.t ->
  Topology.Graph.t -> flow_spec array -> t
(** Resolve every (already checked) spec's route, build the run's state
    and place every flow.  Schedules no event.
    @raise Invalid_argument on an unroutable flow. *)

val attach_faults : t -> Fault.Schedule.t option -> Fault.Driver.t option
(** The fault driver for a non-empty schedule, its events scheduled. *)
