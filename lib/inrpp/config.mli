(** Protocol configuration.

    The record holds what runs set differently: the chunk size, the Ac
    window, the re-request backoff, the store and queue sizes, and the
    feature switches the ablation benches flip.  Everything else is a
    constant, as in the paper (§3.2: "a constant parameter set
    globally"), defined once in the module that reads it; the constants
    below are the ones read outside that module.  All sizes in bits,
    times in seconds, rates in bits per second. *)

type t = {
  chunk_bits : float;
  (** content chunk wire size (default 10 kB) *)
  anticipation : int;
  (** Ac window: how many chunks beyond Nc a request invites the
      sender to push (paper §3.2, "a constant parameter set
      globally") *)
  timeout_backoff : float;
  (** multiplicative backoff of the re-request timer while a flow
      makes no progress (≥ 1; 1 disables backoff).  Keeps re-request
      storms from melting a partitioned network *)
  cache_bits : float;
  (** content-store capacity per router *)
  queue_bits : float;
  (** interface buffer *)
  drr_scheduler : bool;
  (** per-flow deficit-round-robin interface queues instead of FIFO —
      the §3.3 "round-robin scheduler" (ablation [ablation-sched]) *)
  icn_caching : bool;
  (** classic ICN on-path caching: routers insert forwarded chunks
      into the popularity (LRU) region of their content store and
      answer later requests for the same content locally.  Off by
      default: the paper's experiments concern the custody role of
      storage; the [icn-cache] bench shows the two roles composing. *)
  pitless : bool;
  (** PIT-less forwarding ablation ("Living in a PIT-less World",
      PAPERS.md): routers keep {e no} per-flow state.  Forwarding
      state rides in the packet as a source-routed label stack —
      data carries the remaining path in [detour_route], requests in
      [route], both stamped at the endpoints — and routers pop labels
      instead of consulting the flow table.  The cost of statelessness
      is the loss of everything the paper builds on that state: no
      custody, no detours, no back-pressure.  Incompatible with
      [icn_caching] (no content keys at routers). *)
  flow_teardown : bool;
  (** recycle router flow-table entries when a flow completes: the
      protocol layer releases every node the flow was installed on
      (including nodes added by route reconvergence during an outage).
      Off by default — with teardown on, late duplicate chunks of a
      completed flow are dropped at the first stateful router instead
      of riding to the consumer, which perturbs drop counters.  Only
      the two teardown leak tests in [test/test_fault.ml] switch it
      on. *)
}

val default : t
(** 10 kB chunks, Ac = 8, no re-request backoff (the fault
    experiments enable ×2), 4 MB cache, 64-chunk queues, FIFO
    interfaces, stateful forwarding, no ICN caching, no teardown. *)

val ti : float
(** 40 ms: the measurement interval T_i of the anticipated-rate
    estimator, the paper's "≈ average RTT"; also the period of the
    router ticks and of the sampler's default interval. *)

val request_timeout : float
(** 200 ms: the receiver retransmits the request for its lowest
    missing chunk after this much silence (the paper's explicit
    timers/NACKs). *)

val estimator_alpha : float
(** 0.3: EWMA smoothing of r_a across intervals. *)

val engage_ratio : float
(** 0.95: a port enters detour/back-pressure when r_a / r crosses
    this. *)

val release_ratio : float
(** 0.75: a port returns towards push-data when r_a / r falls below
    this (hysteresis against link swapping, an open issue the paper
    flags in §4). *)

val timeout_backoff_cap : float
(** 32: the re-request interval never exceeds
    [timeout_backoff_cap × request_timeout]. *)

val validate : t -> (t, string) result
(** The range checks on the fields, and the one illegal combination
    ([pitless] with [icn_caching]); returns the config unchanged when
    valid. *)

