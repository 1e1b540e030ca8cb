(** Turns a {!Schedule} into engine events.

    The injector is policy-free: it schedules one engine event per
    timed fault (plus one for the end of each burst) and dispatches to
    a [hooks] record.  {!Driver} provides hooks that act on a
    [Chunksim.Net]; tests can install bare hooks to observe ordering. *)

type hooks = {
  link_down : link:int -> policy:Schedule.link_policy -> unit;
  link_up : link:int -> unit;
  node_crash : node:Topology.Node.id -> policy:Schedule.node_policy -> unit;
  node_restart : node:Topology.Node.id -> unit;
  burst_start : loss:float -> unit;
  burst_end : loss:float -> unit;
      (** called [duration] after the matching [burst_start], with the
          same [loss] so overlapping bursts can be un-stacked *)
}

type t

val install : Sim.Engine.t -> Schedule.t -> hooks -> t
(** Schedules the whole schedule now.  Events at equal times fire in
    schedule order. *)

val fired : t -> int
(** Fault events executed so far (burst ends not counted). *)
