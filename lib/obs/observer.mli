(** One handle bundling everything an instrumented run produces: a
    metrics {!Metric.t} registry, trace {!Sink.t}s and (once the run
    wires it) a periodic {!Sampler.t}.

    The caller builds an observer, passes it to an instrumented runner
    ([Inrpp.Protocol.run ~obs], [Baselines.Harness.run ~obs]); the
    runner attaches the sinks to its trace, registers its
    gauges/counters and installs the sampler.  Afterwards the caller reads {!series} and
    [Metric.snapshot (registry obs)] and exports with {!Export}. *)

type t

val create :
  ?sample_interval:float ->
  ?sinks:Sink.t list ->
  ?spans:Span.t ->
  ?recorder:Recorder.t ->
  ?profile:bool ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [sample_interval] overrides the runner's default sampling period
    (seconds).  [spans] and [recorder] are appended to [sinks] (as
    {!Span.sink} / {!Recorder.sink}) and remembered so the runner can
    enable lifecycle tracing, trigger flight dumps and the caller can
    read them back.  [profile] asks the runner to run the engine
    self-profiler (see {!Sim.Engine.profile_start}) and publish its
    rows via {!profile_rows}.  [clock] is the wall clock used by the
    profiler and the sampler's self-observation (e.g.
    [Unix.gettimeofday]); without it the profiler falls back to the
    engine's default clock and the sampler is untimed.
    @raise Invalid_argument if [sample_interval] is non-positive. *)

val registry : t -> Metric.t

val add_sink : t -> Sink.t -> unit
(** Append a sink before handing the observer to a runner — needed
    for sinks built over this observer's own registry, e.g.
    [add_sink o (Sink.counter_tap (registry o))]. *)

val attach_trace : t -> Chunksim.Trace.t -> unit
(** Attach every sink as a tap.  Called by the instrumented runner. *)

val install_sampler : t -> eng:Sim.Engine.t -> default_interval:float -> Sampler.t
(** Create (once) and remember the sampler, using [sample_interval]
    when given, else [default_interval].  Called by the instrumented
    runner; @raise Invalid_argument if a sampler is already installed
    (an observer instruments one run). *)

val sampler : t -> Sampler.t option
val series : t -> Series.t list
(** [[]] before a sampler is installed. *)

(** {1 Tracing, profiling, flight recording} *)

val spans : t -> Span.t option
(** When set, the runner enables chunk-lifecycle trace events (see
    {!Chunksim.Trace.set_lifecycle}) and wires the per-interface
    transmit taps, so the span collector sees the full causal
    timeline. *)

val recorder : t -> Recorder.t option
(** When set, the runner dumps the flight ring on invariant violations
    and unrecovered faults. *)

val profile_requested : t -> bool
val clock : t -> (unit -> float) option

val set_profile_rows : t -> Profile.row list -> unit
(** Called by the runner after the run with
    [Sim.Engine.profile_rows eng]. *)

val profile_rows : t -> Profile.row list
(** [[]] unless [profile] was requested and the run finished. *)

val snapshot : t -> Metric.sample list

val close : t -> unit
(** Close all sinks (flush files). *)
