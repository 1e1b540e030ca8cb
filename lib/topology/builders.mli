(** The topologies the experiments and examples build by hand: a
    chain, the dumbbell and the paper's Fig. 3.  The ISP graphs come
    from {!Isp_zoo}.  Links default to 1 Gbps and 1 ms. *)

val line : ?capacity:float -> ?delay:float -> int -> Graph.t
(** [line n]: n nodes in a chain.  @raise Invalid_argument if [n < 1]. *)

val dumbbell :
  ?access_capacity:float -> ?bottleneck_capacity:float -> int -> Graph.t
(** [dumbbell n]: [n] sources - left router - right router - [n] sinks;
    the middle link is the bottleneck.  Sources are nodes [2..n+1],
    sinks [n+2..2n+1]; routers are 0 (left) and 1 (right). *)

val fig3 : unit -> Graph.t
(** The paper's Fig. 3 topology: nodes 1,2,3,4 (ids 0..3); links
    1-2 @ 10 Mbps, 2-4 @ 2 Mbps, 1-3 @ 5 Mbps, 3-4 @ 5 Mbps.
    The 3-path can absorb the 3 Mbps the 2-4 bottleneck cannot. *)
