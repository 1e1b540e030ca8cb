(** Scenario generation: ties {!Catalog}, {!Arrivals} and {!Session}
    into a bounded stream of {!Request.t}.

    A {!spec} is an immutable parameter record — safe to share across
    domains — and {!requests} is a {e pure function} of [(spec,
    graph)]: it builds fresh sub-generators from seeds derived off
    [spec.seed], so two calls (in the same domain or different ones)
    return identical lists.  This is the property the workload
    determinism suite pins at [--domains 1/2/4]. *)

type spec = {
  seed : int64;
  horizon : float;        (** generate arrivals in [[0, horizon)] *)
  max_requests : int;     (** hard cap on the stream length *)
  (* catalogue *)
  objects : int;
  alpha : float;          (** Zipf exponent *)
  chunk_min : int;
  chunk_max : int;
  chunk_shape : float;    (** bounded-Pareto tail exponent *)
  (* arrivals *)
  rate : float;           (** base sessions per second *)
  diurnal_amplitude : float;
  diurnal_period : float;
  bursts : Arrivals.burst list;
  (* session endpoints *)
  producers : Topology.Node.role list;
  consumers : Topology.Node.role list;
}

val default : spec
(** Seed 1, 10 s horizon, 256-request cap, 64-object catalogue at
    α = 0.8, chunks Pareto(1.2) on [4, 64], 8 sessions/s, no diurnal
    modulation or bursts, any-role endpoints. *)

val requests : spec -> Topology.Graph.t -> Request.t list
(** The generated stream, in arrival order.  Pure: equal arguments
    give equal (structurally and byte-identical) lists.
    @raise Invalid_argument on invalid parameters (see {!Catalog},
    {!Arrivals}, {!Session}) or a graph with no routable pair. *)

val requests_seq : spec -> Topology.Graph.t -> Request.t Seq.t
(** The same stream, lazily: element [n] is generated when it is
    forced, so consuming a prefix costs only that prefix — million-
    request overload runs stay memory-bounded, and a single pass
    promotes nothing it drops.  Persistent by replay: forcing any
    prefix twice returns identical requests (the generator state is
    imperative underneath), and
    [List.of_seq (requests_seq spec g) = requests spec g] always.  A
    single pass draws each request once; re-forcing an earlier node,
    or interleaving two traversals, costs one replay of that node's
    prefix.  The stream value shares one generator among its nodes, so
    it belongs to one domain: build one per domain instead of sharing
    it.  Argument validation is eager; generation is not. *)
