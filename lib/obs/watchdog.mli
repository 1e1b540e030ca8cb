(** Collapse watchdog: sliding-window goodput detector.

    Feed it every delivery ({!note_delivery}) and a periodic {!tick};
    it maintains goodput over a sliding [window] and a {e decaying}
    peak reference — the peak windowed rate, aged exponentially with
    time constant 8 × [window] so that a one-off startup burst cannot
    anchor the thresholds forever.  When the windowed rate falls below
    [collapse_ratio × peak] it declares a collapse episode — firing
    [on_collapse] {e exactly once} per episode — and the episode ends
    only when the rate recovers past [recovery_ratio × peak], which
    records the measured time-to-recovery.  The reference
    keeps decaying through an episode: recovery is judged against an
    aging memory of pre-collapse goodput, so a long outage's bar
    relaxes towards what the recovered system can actually sustain
    instead of demanding a return to a stale burst level.  The gap
    between the two ratios is the hysteresis that keeps a rate
    hovering at the threshold from generating an episode per sample.

    Pure data structure: no clock, no engine dependency — callers pass
    simulation time in. *)

type t

val create :
  window:float ->
  collapse_ratio:float ->
  recovery_ratio:float ->
  on_collapse:(time:float -> rate:float -> peak:float -> unit) ->
  t
(** The overload layer passes its window (1 s) and
    ratios (0.3 / 0.7).  The detector is armed from the first
    delivery.
    @raise Invalid_argument unless [window > 0.]. *)

val note_delivery : t -> time:float -> bits:float -> unit
(** A chunk reached its consumer. *)

val tick : t -> time:float -> unit
(** Periodic evaluation — required to detect a collapse during which
    {e nothing} is delivered (no deliveries means no [note_delivery]
    edges to observe it on). *)

val in_collapse : t -> bool
val episodes : t -> int
val peak : t -> float
(** Current (decayed) peak-goodput reference, bits/s. *)

val recovery_times : t -> float list
(** Per-episode time-to-recovery, episode order; open episodes absent. *)

val total_recovery_time : t -> float
