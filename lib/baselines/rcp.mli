(** RCP-style processor-sharing rate control (Dukkipati & McKeown,
    the paper's reference [14]).

    Receivers pace requests at an explicitly assigned fair rate
    instead of probing with a window.  The rate is the max-min fair
    share of the flow's fixed path among currently active flows,
    recomputed periodically — an idealisation of RCP's router
    feedback (we read the share from a fluid computation rather than
    carrying a rate field hop by hop; see DESIGN.md).  Single path,
    no detours, no custody.  Its receiver paces requests and picks
    chunks with {!Puller.next_chunk}; the run is {!Harness.run}'s. *)

val run :
  ?chunk_bits:float -> ?queue_bits:float -> ?horizon:float ->
  ?obs:Obs.Observer.t -> ?faults:Fault.Schedule.t -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t
(** The rate feedback runs every 50 ms.  Defaults and instrumentation
    as in {!Harness.run}, labelled [protocol=RCP], plus a per-flow
    [rcp_retransmissions_total] metric and a sampled [rcp_rate_bps]
    series. *)
