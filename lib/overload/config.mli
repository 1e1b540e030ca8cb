(** Overload-control configuration.

    One record switches on the whole graceful-degradation layer:
    custody admission policy, router load shedding, the receiver
    circuit breaker, and the collapse watchdog.  Everything is off by
    default: {!off} is the default of every [?overload] argument, and
    under it a run is the paper's protocol unchanged. *)

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

type t = {
  admission : admission;  (** custody admission policy *)
  shed_threshold : float;
      (** custody occupancy (fraction of store capacity) above which
          the router sheds new custody admissions outright — in-custody
          chunks are never shed.  [infinity] disables. *)
  early_bp_threshold : float;
      (** custody occupancy fraction at which back-pressure engages
          {e early}, before the store's high watermark.  [infinity]
          disables (back-pressure then engages at the watermark as
          before). *)
  neighbor_pressure : float;
      (** refuse detours whose first hop lands on a neighbour whose
          custody occupancy fraction is at or above this.  [infinity]
          disables. *)
  retry_budget : int;
      (** consecutive barren retransmissions a receiver may send before
          its circuit breaker opens.  [max_int] disables. *)
  probe_interval : float;
      (** half-open probe spacing (seconds) once the breaker is open. *)
  watchdog_window : float;
      (** collapse-watchdog sliding window (seconds); [0.] disables the
          watchdog entirely. *)
  collapse_ratio : float;
      (** collapse declared when windowed goodput falls below this
          fraction of the peak observed. *)
  recovery_ratio : float;
      (** episode ends when windowed goodput recovers to this fraction
          of peak; must exceed [collapse_ratio] (hysteresis). *)
}

val default : t
(** Sensible active defaults: object-runs admission, shed at
    0.9, early back-pressure at 0.5, neighbour refusal at 0.85, retry
    budget 4 with 1 s probes, 1 s watchdog window with 0.3/0.7
    collapse/recovery ratios. *)

val off : t
(** Every mechanism disabled: drop-tail admission, infinite thresholds,
    an infinite retry budget and no watchdog.  The default of every
    [?overload] argument. *)

val validate : t -> unit
(** @raise Invalid_argument on out-of-range fields. *)

val watchdog_enabled : t -> bool
(** [watchdog_window > 0.] *)

val policy : t -> Chunksim.Cache.policy option
(** The cache admission policy this config asks for; [None] for
    {!Drop_tail}, the store's no-policy path. *)

val admission_name : t -> string
(** Short label for tables: ["drop-tail"], ["object-runs"],
    ["fair-share"]. *)
