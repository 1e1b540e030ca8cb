(** Directed network links.

    A link is a unidirectional channel between two nodes with a fixed
    capacity (bits per second) and propagation delay (seconds).  Links
    carry a dense integer [id] assigned by {!Graph} so that per-link
    state elsewhere (allocations, counters) can live in flat arrays.

    Undirected physical links are represented as two directed links;
    {!Graph.reverse} recovers the opposite direction when it exists. *)

type t = {
  id : int;             (** dense index within the owning graph *)
  src : Node.id;
  dst : Node.id;
  capacity : float;     (** bits per second; [> 0.] *)
  delay : float;        (** propagation delay in seconds; [>= 0.] *)
}

val make : id:int -> src:Node.id -> dst:Node.id -> capacity:float -> delay:float -> t
(** [make ~id ~src ~dst ~capacity ~delay] validates and builds a link.
    @raise Invalid_argument if [capacity <= 0.], [delay < 0.] or
    [src = dst] (self-loops are meaningless for forwarding). *)

