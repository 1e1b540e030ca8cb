(** Maps catalogue requests to (producer, consumer) node pairs on any
    {!Topology.Graph}.

    Producers are the nodes serving content, consumers the nodes
    requesting it; both sets are selected by role (with a fallback to
    every node when a role list matches nothing — small test graphs
    often carry a single role).  Draws reject unroutable pairs, so
    every pair a session emits is safe to hand to
    [Inrpp.Protocol.flow_spec].  On a strongly connected graph, checked
    once at {!create}, every pair of distinct nodes is routable;
    otherwise a per-producer reachability memo decides. *)

type t

val create :
  ?producers:Topology.Node.role list -> ?consumers:Topology.Node.role list ->
  ?affinity:float -> seed:int64 -> Topology.Graph.t -> t
(** Role lists default to every node.  A role list that matches no
    node falls back to every node too (mirroring
    [Flowsim.Workload.Role_pairs]).

    [affinity] (default 0) is the probability that a draw repeats the
    previous draw's pair instead of sampling a fresh one — consecutive
    requests sticking to the same (server, client) pair, which
    concentrates load on a few paths in the EBONE/VSNL scenarios.  At
    0 the draw sequence is byte-identical to pre-affinity sessions (no
    extra RNG draws are made).
    @raise Invalid_argument if the graph has fewer than two nodes, no
    routable (producer, consumer) pair exists at all, or [affinity] is
    outside [0,1]. *)

val draw : t -> Topology.Node.id * Topology.Node.id
(** A uniformly drawn routable [(producer, consumer)] pair with
    distinct endpoints. *)
