(** Fluid flows.

    A flow is a transfer of [size] bits between two nodes.  The
    simulator assigns it a route and, on every arrival/departure event,
    a rate; bits drain at that rate until the flow completes.  The
    mutable fields are owned by {!Simulator}. *)

type t = {
  id : int;
  src : Topology.Node.id;
  dst : Topology.Node.id;
  size : float;                      (** bits *)
  arrival : float;                   (** seconds *)
  shortest_hops : int;               (** hop count of the shortest route *)
  mutable path : Topology.Path.t;    (** current primary route *)
  mutable remaining : float;         (** bits still to deliver *)
  mutable rate : float;              (** current delivered rate, bps *)
  mutable effective_hops : float;    (** rate-weighted hop count of the
                                         route mix currently in use;
                                         set by the allocator *)
  mutable delivered_bits : float;
  mutable weighted_hops : float;     (** Σ (bits × hops used), for stretch *)
  mutable completed_at : float option;
}

val make :
  id:int -> src:Topology.Node.id -> dst:Topology.Node.id -> size:float ->
  arrival:float -> shortest_hops:int -> path:Topology.Path.t -> t
(** @raise Invalid_argument if [size <= 0.] or [src = dst]. *)

val advance : t -> dt:float -> unit
(** Drain [rate *. dt] bits (never below zero) and accumulate the
    delivered-bits and weighted-hops counters.
    @raise Invalid_argument if [dt < 0.]. *)

val stretch : t -> float
(** Bits-weighted mean path stretch of everything delivered so far:
    [weighted_hops / delivered_bits / shortest_hops].  [1.] when
    nothing was delivered yet or the flow is single-hop. *)

val fct : t -> float option
(** Flow completion time, [completed_at - arrival]. *)

