(** Route selection strategies — the three systems compared in
    Fig. 4a. *)

type strategy =
  | Sp
      (** single shortest path (hop metric), deterministic tie-break *)
  | Ecmp of int
      (** equal-cost multipath: hash the flow onto one of up to [n]
          shortest paths *)
  | Inrp of Allocation.inrp_options
      (** shortest primary path; bandwidth allocation may spill onto
          detours per the INRP options *)

val sp : strategy
val ecmp : strategy
(** [Ecmp 8]. *)

val inrp : strategy
(** [Inrp Allocation.default_inrp]. *)

val name : strategy -> string
(** ["SP"], ["ECMP"], ["INRP"] — Fig. 4a series labels. *)

val is_inrp : strategy -> bool

type t
(** Routing state for one graph and strategy: caches shortest-path
    trees, ECMP path sets and the detour table, all pure functions of
    the graph, so per-flow routing is cheap.  One value may serve any
    number of snapshots of the same graph; it is mutable, so each
    parallel job creates its own. *)

val create : Topology.Graph.t -> strategy -> t
val strategy : t -> strategy

val route :
  t -> flow_id:int -> Topology.Node.id -> Topology.Node.id ->
  Topology.Path.t option
(** Primary path for a new flow; [None] when unreachable. *)

val shortest_hops : t -> Topology.Node.id -> Topology.Node.id -> int option

val detours :
  t -> Topology.Link.t -> (Topology.Node.id * Topology.Path.t) list
(** Detour candidates around a link (memoised); empty for non-INRP
    strategies. *)
