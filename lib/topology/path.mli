(** Paths through a graph.

    A path is a non-empty sequence of nodes joined by links.
    Construction checks that each link starts where the previous one
    ended, so a [Path.t] in hand is always walkable.  Its cost is its
    hop count (path stretch, Fig. 4b). *)

type t = private {
  nodes : Node.id list;   (** at least one node; [src] first *)
  links : Link.t list;    (** [List.length links = List.length nodes - 1] *)
}

val of_links : Link.t list -> (t, string) result
(** [of_links ls] requires a non-empty chain where each link starts
    where the previous one ended. *)

val singleton : Node.id -> t
(** Zero-hop path (source = destination). *)

val src : t -> Node.id
val hops : t -> int
(** Number of links. *)
