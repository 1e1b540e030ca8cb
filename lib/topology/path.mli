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

val iter_hops :
  Graph.t -> t ->
  (Node.id -> data_link:Link.t option -> req_link:Link.t option -> unit) ->
  unit
(** [iter_hops g p f] calls [f] on each node of [p], source first, with
    the link data leaves it on towards the last node ([None] there) and
    the link requests leave it on back towards the source, the
    [Graph.find_link] reverse of the hop it was reached by ([None] at
    the source). *)

val unloaded_latency : chunk_bits:float -> t -> float
(** Propagation plus one [chunk_bits] serialisation per link: the
    floor against which a receiver measures queueing delay. *)
