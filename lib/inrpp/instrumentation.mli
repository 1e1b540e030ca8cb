(** Every observer of an INRPP run (private): the trace and its sinks,
    span taps, the engine profiler, the invariant checkers, the flight
    recorder, the collapse watchdog, the distribution histograms and
    the observer's callback metrics and sampler.  The run stages call it
    only through the hooks below.  A run with no trace, observer,
    checker or overload control has none ([None]), and each hook is
    then one test that allocates nothing. *)

type t

val new_trace :
  trace:Chunksim.Trace.t option -> obs:Obs.Observer.t option ->
  check:Check.Invariant.t option -> Chunksim.Trace.t option
(** The run's trace, for {!Router.create}: the caller's [trace], else a
    new one when the run is observed or checked. *)

val create :
  cfg:Config.t -> horizon:float -> loss_rate:float option ->
  obs:Obs.Observer.t option -> check:Check.Invariant.t option ->
  watchdog:bool -> trace:Chunksim.Trace.t option -> Sim.Engine.t ->
  Chunksim.Net.t -> Topology.Path.t array -> Router.t array -> t option
(** Once the routers exist, before any flow is placed: the observer's
    sinks and the checkers on [trace], the routers' custody ledgers,
    span taps, profiler kinds, the watchdog when [watchdog], and the
    FCT and per-flow queueing-delay histograms (one per route).
    Schedules no event. *)

val trace : t option -> Chunksim.Trace.t option

val start :
  t option -> link_state:Topology.Link_state.t ->
  driver:Fault.Driver.t option -> senders:Sender.t array ->
  receivers:Receiver.t array -> src:(int -> Topology.Node.id) ->
  dst:(int -> Topology.Node.id) -> finished:(unit -> bool) -> unit
(** Once the endpoints exist: the callback metrics and sampler tracks,
    in a fixed order, and the sampler start (its first event).
    [src]/[dst] give a flow's endpoint nodes. *)

(** {1 Hooks} *)

type stage = Tick | Drain | Flow_start

val mark : t option -> stage -> unit
(** Claim the current event for the stage's profiler kind. *)

val pushed : t option -> Chunksim.Packet.t -> unit
val delivered : t option -> node:Topology.Node.id -> Chunksim.Packet.t -> unit
val completed : t option -> flow:int -> fct:float -> unit
val link_fault : t option -> link:int -> up:bool -> unit
val node_fault : t option -> node:Topology.Node.id -> up:bool -> unit

val fault_loss : t option -> Chunksim.Packet.t -> unit
(** A fault destroyed this packet. *)

val custody_wiped :
  t option -> node:Topology.Node.id -> (int * int) list -> unit

val tick : t option -> finished:bool -> unit
(** After an estimator tick: the checker's probe and, until
    [finished], the watchdog's heartbeat. *)

val finish : t option -> quiescent:bool -> disruptions:int -> unit
(** After the engine stops: the profiler's rows, a recorder dump for
    [disruptions] no delivery followed, and the final checks. *)

val collapse : t option -> int * float list
(** Collapse episodes and their recovery times; [(0, [])] without a
    watchdog. *)
