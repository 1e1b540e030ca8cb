(** Bandwidth allocation over a topology.

    Two allocators, matching the two transport philosophies the paper
    contrasts (§3.1):

    - {!max_min}: classic end-to-end max-min fairness by progressive
      filling — the idealised behaviour of TCP-like closed-loop control
      on fixed single paths ({e global stability, local fairness}).

    - {!inrp}: the In-Network Resource Pooling allocation — every link
      is shared equally among the flows crossing it ({e global
      fairness}); traffic a primary link cannot carry overflows onto
      detour paths around that link ({e local stability}); whatever
      still does not fit is held back (back-pressure) and the flow's
      delivered rate drops accordingly.  Reproduces the Fig. 3 worked
      example exactly and drives Fig. 4a/4b. *)

val max_min : Topology.Graph.t -> (Topology.Path.t * float) array -> float array
(** [max_min g demands] where each element is (path, demand-cap in bps;
    [infinity] for unbounded).  Returns the max-min fair rate of each
    flow.  Zero-hop paths get their demand (or [0.] if unbounded).
    O(links² × flows) worst case — fine at ISP scale. *)

(** Options for the INRP allocator. *)
type inrp_options = {
  max_detour : int;      (** detour depth: 0 disables, 1 = paper's 1-hop,
                             2 adds the "one extra hop" recursion *)
  allow_further : bool;  (** nodes on a detour may detour one extra hop
                             (paper's Fig. 4 setting) — includes
                             2-intermediate detours as fallback *)
  source_detour : bool;  (** the source node acts as a router for its own
                             traffic: it may detour around its congested
                             first link (PoP-level semantics, used for
                             Fig. 4).  When [false], senders multiplex
                             into the primary first link by processor
                             sharing and never detour there — the §3.2
                             end-host sender model of the Fig. 3 worked
                             example. *)
}

val default_inrp : inrp_options
(** [{ max_detour = 1; allow_further = true; source_detour = true }] *)

val rounds : int
(** 50: the water-filling granularity.  Each pass serves every flow in
    [rounds] equal quanta of its push rate. *)

val fig3_inrp : inrp_options
(** {!default_inrp} with [source_detour = false]. *)

type inrp_result = {
  delivered : float array;       (** per-flow delivered rate at dst, bps *)
  pushed : float array;          (** per-flow rate injected by the sender *)
  effective_hops : float array;  (** rate-weighted hops of the route mix *)
  detoured_fraction : float;     (** fraction of delivered traffic that
                                     used at least one detour link *)
  link_carried : float array;    (** per-link carried rate, bps, indexed
                                      by link id — includes traffic later
                                      dropped downstream *)
}

val inrp :
  ?options:inrp_options ->
  detours:(Topology.Link.t -> (Topology.Node.id * Topology.Path.t) list) ->
  Topology.Graph.t ->
  (Topology.Path.t * float) array ->
  inrp_result
(** [inrp ~detours g demands]: [demands] as in {!max_min}; a flow's
    push rate is the minimum of its demand cap and its processor-sharing
    share of its first link.  [detours l] lists detour paths around
    link [l] (see {!Topology.Detour.detours_via}); it is consulted only
    for saturated links and should be memoised by the caller, e.g. with
    {!Topology.Detour.Table.find}. *)
