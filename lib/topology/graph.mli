(** Directed multigraph with dense node and link identifiers.

    This is the substrate every simulator in the repository builds on.
    Graphs are immutable once built: construct one with {!Builder},
    then query it.  Node ids are [0 .. node_count - 1] and link ids are
    [0 .. link_count - 1], so callers can keep per-node / per-link
    state in flat arrays. *)

type t

(** {1 Construction} *)

module Builder : sig
  type graph = t
  type t

  val create : unit -> t

  val add_node : t -> ?role:Node.role -> string -> Node.id
  (** [add_node b name] registers a node and returns its dense id. *)

  val add_link :
    t -> ?capacity:float -> ?delay:float -> Node.id -> Node.id -> unit
  (** [add_link b u v] adds a directed link [u -> v].
      [capacity] defaults to [1e9] bps, [delay] to [1e-3] s.
      @raise Invalid_argument on unknown endpoints or self-loop. *)

  val add_edge :
    t -> ?capacity:float -> ?delay:float -> Node.id -> Node.id -> unit
  (** [add_edge b u v] adds both directions [u -> v] and [v -> u]. *)

  val build : t -> graph
  (** Freeze into an immutable graph.
      @raise Invalid_argument if a duplicate directed link exists. *)
end

(** {1 Queries} *)

val node_count : t -> int
val link_count : t -> int
(** Number of {e directed} links. *)

val node : t -> Node.id -> Node.t
val link : t -> int -> Link.t
val nodes : t -> Node.t list
val links : t -> Link.t list

val out_links : t -> Node.id -> Link.t list
val in_links : t -> Node.id -> Link.t list
val out_degree : t -> Node.id -> int

type rows = private {
  first : int array;
      (** node [u]'s row is entries [first.(u)] to [first.(u + 1) - 1] *)
  link : int array;  (** the entry's link id *)
  head : int array;  (** that link's [dst] *)
}
(** Flat out-adjacency: each node's out-links in {!out_links} order,
    with their heads beside them, so a search walks a node's links
    without following a list or loading a {!Link.t}. *)

val rows : t -> rows
(** The graph's rows, built once by {!Builder.build}.  They are shared
    by every caller, across domains too: read them, never write. *)

val find_link : t -> Node.id -> Node.id -> Link.t option
(** The directed link [u -> v] if any, found by a scan of [u]'s row;
    [None] for ids outside the graph. *)

val reverse : t -> Link.t -> Link.t option
(** The opposite direction of the same physical link, when present. *)

val undirected_links : t -> Link.t list
(** One representative (the lower-id direction) per physical link.
    Purely directed links (no reverse) are included as themselves. *)

val total_capacity : t -> float
(** Sum of directed link capacities, bits per second. *)

val is_strongly_connected : t -> bool
(** Every node reaches every other along directed links: one forward
    and one backward search from node 0.  On a graph built from
    {!Builder.add_edge}s this is plain connectivity.  The empty graph
    is strongly connected. *)

val pp : Format.formatter -> t -> unit
(** Summary line: node/link counts and capacity. *)
