(** Deterministic and random topology generators.

    Regular topologies serve the unit tests and worked examples; the
    random families (Erdős–Rényi, Waxman, Barabási–Albert) provide
    workloads for property tests and ablations.  All random builders
    take an explicit 64-bit [seed] and are reproducible. *)

(** {1 Regular topologies} *)

val line : ?capacity:float -> ?delay:float -> int -> Graph.t
(** [line n]: n nodes in a chain.  @raise Invalid_argument if [n < 1]. *)

val ring : ?capacity:float -> ?delay:float -> int -> Graph.t
(** [ring n]: cycle of [n >= 3] nodes. *)

val star : ?capacity:float -> ?delay:float -> int -> Graph.t
(** [star n]: hub node 0 plus [n] leaves. [n >= 1]. *)

val full_mesh : ?capacity:float -> ?delay:float -> int -> Graph.t
(** [full_mesh n]: complete graph on [n >= 2] nodes. *)

val grid : ?capacity:float -> ?delay:float -> int -> int -> Graph.t
(** [grid rows cols]: 2-D lattice; node (r,c) has id [r * cols + c]. *)

val binary_tree : ?capacity:float -> ?delay:float -> int -> Graph.t
(** [binary_tree depth]: complete binary tree with [2^(depth+1) - 1]
    nodes; node 0 is the root.  [depth >= 0]. *)

val dumbbell :
  ?access_capacity:float -> ?bottleneck_capacity:float -> ?delay:float ->
  int -> Graph.t
(** [dumbbell n]: [n] sources - left router - right router - [n] sinks;
    the middle link is the bottleneck.  Sources are nodes [2..n+1],
    sinks [n+2..2n+1]; routers are 0 (left) and 1 (right). *)

val fig3 : unit -> Graph.t
(** The paper's Fig. 3 topology: nodes 1,2,3,4 (ids 0..3); links
    1-2 @ 10 Mbps, 2-4 @ 2 Mbps, 1-3 @ 5 Mbps, 3-4 @ 5 Mbps.
    The 3-path can absorb the 3 Mbps the 2-4 bottleneck cannot. *)

(** {1 Random families} *)

val erdos_renyi :
  ?capacity:float -> ?delay:float -> seed:int64 -> p:float -> int -> Graph.t
(** G(n, p); only the giant attempt is returned (may be disconnected —
    check {!Graph.is_connected} if that matters). [0 <= p <= 1]. *)

val waxman :
  ?capacity:float -> ?delay:float -> seed:int64 -> alpha:float ->
  beta:float -> int -> Graph.t
(** Waxman random geometric graph on the unit square; link probability
    [alpha * exp (-dist / (beta * sqrt 2.))].  Delays, when not
    overridden, are proportional to Euclidean distance. *)

