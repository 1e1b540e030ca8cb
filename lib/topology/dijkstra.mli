(** Shortest paths by hop count: unit weight per link, the metric of
    the paper's path stretch and detour classification. *)

type tree
(** Single-source shortest-path tree. *)

module Heap : sig
  type t
  (** Binary min-heap of [(priority, node)] pairs in growable parallel
      arrays: a push or pop allocates nothing once the arrays are
      large enough.  Equal priorities pop in an order fixed by the
      sequence of pushes and pops, so two searches that make the same
      calls settle equal-distance nodes in the same order. *)

  val create : unit -> t
  val is_empty : t -> bool
  val push : t -> float -> int -> unit
  val pop : t -> int
  (** Remove the minimum and return its node; the heap must be
      non-empty. *)
end
(** The heap {!run} pops from, exposed so that a search which must
    reproduce {!run}'s choice among equal-cost predecessors can reuse
    it. *)

val run : ?forbidden_links:(Link.t -> bool) -> ?target:Node.id ->
  Graph.t -> Node.id -> tree
(** [run g s] computes shortest distances from [s] to every node.
    [forbidden_links] prunes links on the fly: {!k_disjoint} removes
    the links its earlier paths took.  A node is pruned by pruning
    every link whose [dst] it is.

    [target] stops the search once it is settled.  [path_to tree
    target] is then exactly what a full run gives.  Every other node's
    entries are partial: an unsettled node may be missing or carry a
    longer-than-shortest tentative path. *)


val path_to : tree -> Node.id -> Path.t option
(** Reconstructed shortest path from the tree's source. *)

val hop_distance : tree -> Node.id -> int option
(** Number of links on {!path_to}'s path, [None] when unreachable. *)

val reachable : tree -> Node.id -> bool

val shortest_path : Graph.t -> Node.id -> Node.id -> Path.t option
(** One-shot convenience wrapper around {!run} and {!path_to}, by
    hops. *)

val k_disjoint : Graph.t -> k:int -> Node.id -> Node.id -> Path.t list
(** Up to [k] link-disjoint paths, greedily: repeatedly take the
    shortest path by hops and remove its links from consideration.  The
    multipath baselines (MPTCP) route their subflows on these.
    @raise Invalid_argument if [k <= 0]. *)
