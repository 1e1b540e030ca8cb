(** Periodic timeseries sampler over a {!Sim.Engine}.

    Probes are registered at setup time ([unit -> float] closures); on
    every tick the sampler appends one point per probe to its
    {!Series.t}, all sharing the same timestamp.  Driven by
    {!Sim.Engine.schedule_periodic}, so sampling interleaves correctly
    with the simulation's own events.

    Hooks run before the probes on each tick — use them to advance
    derived state (e.g. phase-occupancy accumulators) exactly once per
    sample. *)

type t

val create :
  eng:Sim.Engine.t -> interval:float -> ?clock:(unit -> float) -> unit -> t
(** [clock] (a wall clock, e.g. [Unix.gettimeofday]) turns on
    self-observation: every sample is timed and accumulated
    into {!probe_seconds}, making the sampler's own overhead a
    first-class measurement.  Without it, sampling is untimed and
    {!probe_seconds} stays [0.].
    @raise Invalid_argument if [interval <= 0.]. *)

val track : t -> ?labels:Metric.labels -> string -> (unit -> float) -> Series.t
(** Register a probe; returns its series.  Probes fire in registration
    order. *)

val on_sample : t -> (unit -> unit) -> unit
(** Register a pre-probe hook. *)

val track_shares :
  t -> ?labels:Metric.labels -> string -> key:string -> string array ->
  (unit -> int) -> unit
(** [track_shares t name ~key states state]: one series per state,
    labelled [(key, states.(i)) :: labels], of the share of sampled
    time that [state ()] (read by a hook at every sample) spent in
    state [i]; [0.] before any time is counted, and a negative state
    counts none. *)

val start : ?stop:(unit -> bool) -> t -> unit
(** Take a baseline sample now, then one every [interval] until [stop]
    returns [true] (one final sample is taken at the stopping tick).
    @raise Invalid_argument if already started. *)

val series : t -> Series.t list
(** Registration order. *)

val ticks : t -> int

val probe_seconds : t -> float
(** Cumulative wall-clock seconds spent taking samples — [0.]
    unless a [clock] was given to {!create}. *)

val self_observing : t -> bool
(** [true] iff a [clock] was given to {!create}. *)
