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
  seed:int64 -> Topology.Graph.t -> t
(** Role lists default to every node.  A role list that matches no
    node falls back to every node too (mirroring
    [Flowsim.Workload.Role_pairs]).
    @raise Invalid_argument if the graph has fewer than two nodes, or
    no routable (producer, consumer) pair exists at all. *)

val draw : t -> Topology.Node.id * Topology.Node.id
(** A uniformly drawn routable [(producer, consumer)] pair with
    distinct endpoints. *)
