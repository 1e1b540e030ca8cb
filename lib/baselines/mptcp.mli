(** Multipath coupled-AIMD transport — the e2eRPP comparator (§2.2).

    Up to two link-disjoint end-to-end paths per flow, each
    with its own window, coupled by MPTCP's linked increase so the
    aggregate is no more aggressive than one TCP.  Resource pooling
    across {e end-to-end} paths only: no in-network detours, no
    custody.

    Like {!Aimd}, a parameter-only preset over {!Harness.run} and
    {!Puller}: the coupled linked-increase lives in {!Puller} (keyed on
    [coupled = true]), path diversity in {!Harness.run}'s
    disjoint-path set-up. *)

val run :
  ?chunk_bits:float -> ?queue_bits:float -> ?horizon:float ->
  ?obs:Obs.Observer.t -> ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** Two subflows per flow (fewer when the topology offers fewer
    disjoint paths).  Defaults and instrumentation as in
    {!Harness.run}, labelled [protocol=MPTCP]. *)
