(** Per-link detour candidates for the chunk-level router.

    Memoised view over a {!Topology.Detour.Table}: for each
    directed link, the list of detour hops — the first link to take
    and the node sequence a deflected packet must then visit to rejoin
    the primary path at the far end of the protected link. *)

type candidate = {
  first_link : Topology.Link.t;      (** the deflection hop *)
  rest : Topology.Node.id list;      (** nodes after the first hop, ending
                                         at the protected link's dst *)
  links : Topology.Link.t list;      (** every link of the detour path,
                                         [first_link] included — used to
                                         check queue room along the whole
                                         detour (the paper's one-hop
                                         neighbour state exchange) *)
  hops : int;                        (** total detour path length *)
}

type t

val create : ?max_intermediate:int -> Topology.Graph.t -> t
(** [max_intermediate] defaults to 2. *)

val candidates : t -> Topology.Link.t -> candidate list
(** Shortest detours first; empty when the link has none within the
    depth bound. *)

