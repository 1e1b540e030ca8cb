(** Detour-path discovery and classification — the engine behind the
    paper's Table 1.

    For a directed link [u -> v], a detour is an alternative route from
    [u] to [v] that does not use the link itself (in either direction:
    the physical link is assumed down or congested).  Its class is the
    number of {e intermediate} nodes on the shortest such route:
    [u -> w -> v] is a 1-hop detour, [u -> w -> x -> v] a 2-hop detour,
    and so on, exactly the buckets of Table 1. *)

type availability =
  | Detour of int  (** shortest alternative has this many intermediate nodes; [>= 1] *)
  | Unavailable    (** no alternative route exists *)

type profile = {
  one_hop : float;     (** fraction of links with a 1-hop detour *)
  two_hop : float;
  three_plus : float;
  unavailable : float;
  total_links : int;   (** undirected links classified *)
}
(** The four fractions sum to 1 (up to rounding). *)

val classify_link : Graph.t -> Link.t -> availability
(** Shortest-alternative class for one directed link.  Both directions
    of the physical link are excluded from the search, a BFS that
    stops when it discovers the link's destination. *)

module Table : sig
  type t
  (** Memoised detour lists for the links of one graph.  The
      first query of a link out of [u] runs one bounded search per
      neighbour of [u], in one workspace reused across searches, and
      keeps from each only the continuations to [u]'s neighbours; a
      link's list is built from them on its first query.  Mutable, so
      each parallel job creates its own. *)

  val create : ?max_intermediate:int -> Graph.t -> t
  (** [max_intermediate] defaults to 2: 1-hop detours first, 2-hop
      fallback.
      @raise Invalid_argument if [max_intermediate < 1]. *)

  val find : t -> Link.t -> (Node.id * Path.t) list
  (** All detours of [l] with at most [max_intermediate]
      intermediate nodes, keyed by their first intermediate node (the
      neighbour the traffic is deflected to).  A neighbour appears at
      most once, with its shortest usable continuation; the list is
      sorted by length, then neighbour id.  Computed once per link,
      whatever the order of queries. *)
end

val classify_links : Graph.t -> profile
(** Classify every {e undirected} link of the graph (Table 1 counts
    physical links once). *)

val pp_profile : Format.formatter -> profile -> unit
(** Prints percentages in Table-1 column order:
    1 hop, 2 hops, 3+ hops, N/A. *)
