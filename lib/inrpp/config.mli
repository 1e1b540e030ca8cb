(** Protocol constants.

    One record gathers every tunable of the INRPP implementation; the
    ablation benches sweep individual fields.  All sizes in bits,
    times in seconds, rates in bits per second. *)

type t = {
  chunk_bits : float;
  (** content chunk wire size (default 10 kB) *)
  anticipation : int;
  (** Ac window: how many chunks beyond Nc a request invites the
      sender to push (paper §3.2, "a constant parameter set
      globally") *)
  initial_request_rate : float;
  (** requests per second while no data has arrived yet — the
      "initial window" analogue *)
  request_timeout : float;
  (** receiver retransmits the request for its lowest missing chunk
      after this much silence (the paper's explicit timers/NACKs) *)
  timeout_backoff : float;
  (** multiplicative backoff of the re-request timer while a flow
      makes no progress (≥ 1; 1 disables backoff).  Keeps re-request
      storms from melting a partitioned network *)
  timeout_backoff_cap : float;
  (** ceiling on the backoff multiplier: the re-request interval never
      exceeds [timeout_backoff_cap × request_timeout] *)
  ti : float;
  (** measurement interval T_i of the anticipated-rate estimator;
      the paper suggests ≈ average RTT *)
  estimator_alpha : float;
  (** EWMA smoothing of r_a across intervals, in [0, 1]; higher =
      more reactive *)
  engage_ratio : float;
  (** enter detour/back-pressure when r_a / r crosses this *)
  release_ratio : float;
  (** return towards push when r_a / r falls below this
      (hysteresis against link swapping, an open issue the paper
      flags in §4) *)
  max_detour : int;
  (** intermediate nodes allowed on a detour (1 = paper's headline;
      2 covers "nodes on the detour path can further detour by one
      extra hop") *)
  flowlet_gap : float;
  (** idle gap after which a flow may be re-pinned to a different
      path (flowlet switching, avoids reordering within bursts) *)
  detour_queue_threshold : float;
  (** a detour first-hop is usable while its queue occupancy is
      below this fraction *)
  cache_bits : float;
  (** content-store capacity per router *)
  cache_high_water : float;
  cache_low_water : float;
  queue_bits : float;
  (** interface buffer *)
  speed_factor : float;
  (** derate interface transmit speed (§3.3 footnote); (0, 1] *)
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
(** 10 kB chunks, Ac = 8, 100 req/s initial, 200 ms timeout (backoff
    off by default — the fault experiments enable ×2 capped at ×32),
    T_i = 40 ms, α = 0.3, engage 0.95 / release 0.75, 1-hop detours
    (+1 recursion), 20 ms flowlets, queue threshold 0.5, 4 MB cache
    (0.7/0.3 watermarks), 64-chunk queues, full speed, stateful
    forwarding, no teardown. *)

val validate : t -> (t, string) result
(** All range checks; returns the config unchanged when valid. *)

val chunk_tx_time : t -> rate:float -> float
(** Serialisation time of one chunk at [rate]. *)
