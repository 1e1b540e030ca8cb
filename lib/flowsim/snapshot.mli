(** Saturated-demand snapshot experiments — the Fig. 4a/4b methodology.

    The paper evaluates INRP against SP and ECMP by measuring how much
    of the network's bandwidth each scheme can put to use when senders
    push open-loop ("if senders see extra available bandwidth they
    insert more data in the network", §3.3).  A snapshot places a set
    of everlasting flows between random node pairs, allocates
    bandwidth once with the strategy's allocator, and reads off
    utilisation; an ensemble of seeded snapshots gives the averages the
    figure reports.  This avoids simulating the (strategy-independent)
    Poisson arrival churn while measuring exactly the quantity the
    figure plots. *)

type result = {
  strategy : string;
  throughput : float;
  (** Σ delivered flow rate / Σ offered demand — the Fig. 4a series *)
  utilisation : float;
  (** Σ carried-per-link / Σ capacity (INRP counts detour legs and
      traffic later dropped, so compare schemes on [throughput]) *)
  goodput : float;
  (** Σ delivered flow rate, bps *)
  delivered_fraction : float;
  (** goodput / Σ sender push rate; 1.0 means nothing was held back *)
  mean_stretch : float;
  (** rate-weighted mean path stretch *)
  detoured_fraction : float;
  (** share of traffic that crossed at least one detour (INRP only) *)
  stretch_samples : Sim.Stats.Samples.t;
  (** per-flow rate-weighted stretch values — the Fig. 4b CDF *)
  flows : int;
}

val ensemble :
  ?endpoints:Workload.endpoints -> ?demand:float ->
  strategy:Routing.strategy ->
  nflows:int -> seeds:int64 list -> Topology.Graph.t -> result
(** One snapshot per seed, each of [nflows] everlasting flows between
    distinct random pairs offering [demand] bps (default [infinity]:
    senders take everything their first link grants), on one routing
    state; the result is the mean over seeds, with stretch samples
    pooled.
    @raise Invalid_argument on an empty seed list, [nflows <= 0] or
    [demand <= 0.]. *)
