(** Fluid flow-level discrete-event simulator.

    Flows arrive Poisson-distributed, get a route from the configured
    strategy, and share bandwidth according to the matching allocator
    ({!Allocation.max_min} for SP/ECMP, {!Allocation.inrp} for INRP).
    Rates are recomputed on every arrival and departure; between
    events, flows drain fluidly at their allocated rate.  This is the
    simulator of the paper's §3.3 evaluation (Figs. 4a and 4b). *)

type config = {
  strategy : Routing.strategy;
  arrival_rate : float;          (** flows per second *)
  size : Workload.size_dist;
  endpoints : Workload.endpoints;
  warmup : float;                (** seconds before measurement starts *)
  duration : float;              (** measurement window length *)
  seed : int64;
  max_active : int;              (** admission cap (runaway guard) *)
}

val config :
  ?size:Workload.size_dist -> ?endpoints:Workload.endpoints ->
  ?warmup:float -> ?duration:float -> ?seed:int64 -> ?max_active:int ->
  strategy:Routing.strategy -> arrival_rate:float -> unit -> config
(** Defaults: 4 Mbit exponential sizes, any endpoint pair, 2 s warmup,
    8 s window, seed 1, cap 4000. *)

val run : Topology.Graph.t -> config -> Results.t
(** @raise Invalid_argument on non-positive durations or rates. *)

val run_static :
  Topology.Graph.t -> strategy:Routing.strategy ->
  (Topology.Node.id * Topology.Node.id) list -> float array
(** Allocate a fixed set of everlasting flows once and return their
    rates — no event loop.  This is the Fig. 3 worked-example entry
    point.  @raise Invalid_argument if some pair is unroutable. *)
