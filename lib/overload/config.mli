(** Overload-control configuration.

    One switch turns on the whole graceful-degradation layer: custody
    admission policy, router load shedding, early back-pressure,
    detour refusal into pressured neighbours, the receiver circuit
    breaker and the collapse watchdog.  Only the admission policy is
    chosen per run; every threshold is one of the constants below.
    {!Off} is the default of every [?overload] argument, and under it
    a run is the paper's protocol unchanged. *)

type admission =
  | Drop_tail
      (** Always admit while capacity lasts: no policy in the store. *)
  | Object_runs
      (** Object-granularity admission: never break a custody run the
          store already committed to; refuse {e new} runs above 0.6
          custody occupancy.  See {!Chunksim.Cache.object_runs}. *)
  | Fair_share
      (** Per-flow fairness cap over the custody region: no flow grows
          past an equal split of the store.  See
          {!Chunksim.Cache.fair_share}. *)

type t =
  | Off  (** every mechanism disabled *)
  | On of admission  (** every mechanism on, with this admission *)

val default : t
(** [On Object_runs]. *)

val shed_threshold : float
(** 0.9: custody occupancy (fraction of store capacity) above which a
    router sheds new custody admissions outright; in-custody chunks
    are never shed. *)

val early_bp_threshold : float
(** 0.5: custody occupancy fraction at which back-pressure engages
    {e early}, before the store's high watermark. *)

val neighbor_pressure : float
(** 0.85: detours whose first hop lands on a neighbour at or above
    this custody occupancy fraction are refused. *)

val retry_budget : int
(** 4: consecutive barren retransmissions a receiver may send before
    its circuit breaker opens. *)

val probe_interval : float
(** 1 s: half-open probe spacing once the breaker is open. *)

val watchdog_window : float
(** 1 s: the collapse watchdog's sliding window. *)

val collapse_ratio : float
(** 0.3: collapse is declared when windowed goodput falls below this
    fraction of the peak observed. *)

val recovery_ratio : float
(** 0.7: an episode ends when windowed goodput recovers to this
    fraction of the peak (hysteresis above {!collapse_ratio}). *)

val policy : t -> Chunksim.Cache.policy option
(** The cache admission policy this config asks for; [None] under
    {!Off} and for {!Drop_tail}, the store's no-policy path. *)

val admission_name : t -> string
(** Short label for tables: ["drop-tail"], ["object-runs"],
    ["fair-share"], and ["off"] for {!Off}. *)
