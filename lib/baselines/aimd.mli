(** Single-path end-to-end AIMD transport — the TCP-like comparator
    the paper argues against (§2.1).

    Receiver-driven interest control (one request per chunk) with an
    AIMD window, slow start, RTO loss recovery; plain drop-tail
    forwarding; shortest single path.

    A parameter-only preset: the receiver is {!Puller}'s window, the
    run is {!Harness.run}'s, both shared with {!Mptcp}.  AIMD {e is}
    the single-path uncoupled point in that family, so this module
    only fixes [coupled = false] and [paths_per_flow = 1]. *)

val run :
  ?chunk_bits:float -> ?queue_bits:float -> ?horizon:float ->
  ?obs:Obs.Observer.t -> ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** Defaults and instrumentation as in {!Harness.run}, labelled
    [protocol=AIMD]. *)
