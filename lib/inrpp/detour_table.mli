(** The detour depth of the chunk-level router.

    A {!Topology.Detour.Table}, whose per-link memo lists, for each
    directed link, every detour keyed by the neighbour it deflects
    to. *)

type t = Topology.Detour.Table.t

val create : ?max_intermediate:int -> Topology.Graph.t -> t
(** [max_intermediate] defaults to 2. *)
