(** Shortest paths.

    Two metrics are supported, matching how routes are costed in the
    paper's evaluation: [Hops] (unit weight per link — the metric used
    for path stretch and detour classification) and [Delay]
    (propagation-delay weight). *)

type metric =
  | Hops
  | Delay

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

val run : ?metric:metric -> ?forbidden_links:(Link.t -> bool) ->
  ?forbidden_nodes:(Node.id -> bool) -> ?target:Node.id -> ?bound:float ->
  Graph.t -> Node.id -> tree
(** [run g s] computes shortest distances from [s] to every node.
    [forbidden_links] / [forbidden_nodes] prune the graph on the fly —
    this is how detour discovery removes the protected link.  The
    source is never pruned by [forbidden_nodes].

    [target] and [bound] stop the search early: once [target] is
    settled, or once the nearest unsettled node lies further than
    [bound].  [path_to tree target] is then exactly what a full run
    gives when the target's distance is within [bound]; beyond it the
    result is [None] or a path longer than [bound].  Every other
    node's entries are partial: an unsettled node may be missing or
    carry a longer-than-shortest tentative path. *)

val distance : tree -> Node.id -> float option
(** [None] when unreachable. *)

val path_to : tree -> Node.id -> Path.t option
(** Reconstructed shortest path from the tree's source. *)

val hop_distance : tree -> Node.id -> int option
(** Number of links on the reconstructed path (equals [distance] under
    the [Hops] metric). *)

val reachable : tree -> Node.id -> bool
val source : tree -> Node.id

val shortest_path : ?metric:metric -> Graph.t -> Node.id -> Node.id -> Path.t option
(** One-shot convenience wrapper around {!run} and {!path_to}. *)

val all_pairs_hops : Graph.t -> int array array
(** [all_pairs_hops g] is the matrix of hop distances; [max_int] where
    unreachable.  O(n * (n + m)) via per-source BFS. *)

val eccentricity : Graph.t -> Node.id -> int option
(** Longest hop distance from the node to any reachable node; [None]
    if the node reaches nothing else. *)

val next_hops : ?metric:metric -> Graph.t -> Node.id -> dst:Node.id -> Link.t list
(** All first links of equal-cost shortest paths from the node to
    [dst].  Empty when unreachable.  Used by ECMP. *)
