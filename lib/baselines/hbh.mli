(** Hop-by-hop interest shaping (Rozhnova & Fdida, the paper's
    reference [45]).

    Routers pace the {e request} stream per flow so the returning data
    matches each flow's fair share of the data link the requests'
    answers will traverse — congestion control without e2e probing,
    but still single-path and bottleneck-bound.  The paper's §4
    critique, which this implementation makes measurable: it needs
    per-flow request queues at every hop and transmits at the path's
    slowest link ({e global stability}), so it cannot exploit detours
    or in-network storage.

    Data is never sent faster than it can drain, so the shapers alone
    drop nothing, but a fault still loses chunks; and no flow goes
    faster than its bottleneck.  The shapers are the one handler it
    installs over {!Harness.run}'s plain forwarders.  Its receivers
    keep a fixed window of interests in flight (chunks chosen by
    {!Puller.next_chunk}) and re-request a chunk whose interest has
    gone unanswered for 5 s. *)

val run :
  ?chunk_bits:float -> ?queue_bits:float -> ?horizon:float ->
  ?obs:Obs.Observer.t -> ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** Defaults and instrumentation as in {!Harness.run}, labelled
    [protocol=HBH]. *)
