(** Matched-scenario comparison: INRPP against the e2e baselines.

    Runs the same topology and flow set through INRPP (chunk-level,
    {!Inrpp.Protocol}) and the four baselines over {!Harness.run}, and
    returns one {!Run_result.t} per protocol — the `protocols`
    experiment.  Every baseline forwards store-and-forward with plain
    drop-tail queues: no in-network detours, no custody. *)

type protocol =
  | Inrpp_proto
  | Aimd_proto
      (** single-path end-to-end AIMD, the TCP-like comparator the
          paper argues against (§2.1): one request per chunk, an AIMD
          window with slow start and RTO loss recovery, on the
          shortest path.  The single-path, uncoupled point of
          {!Puller}'s window family. *)
  | Mptcp_proto
      (** multipath coupled AIMD, the e2eRPP comparator (§2.2): up to
          two link-disjoint end-to-end paths per flow, each with its
          own window, coupled by MPTCP's linked increase so the
          aggregate is no more aggressive than one TCP.  Resource
          pooling across end-to-end paths only. *)
  | Rcp_proto
      (** RCP-style processor-sharing rate control (Dukkipati &
          McKeown, the paper's ref. [14]): receivers pace requests at
          the max-min fair share of their single path, fed back every
          50 ms ({!Rcp}).  Observed, it adds a per-flow
          [rcp_retransmissions_total] metric and a sampled
          [rcp_rate_bps] series. *)
  | Hbh_proto
      (** hop-by-hop interest shaping (Rozhnova & Fdida, the paper's
          ref. [45]): per-flow request shapers at every node pace the
          request stream so the returning data matches each flow's
          fair share of its data link ({!Hbh}).  Congestion control
          without e2e probing, but single-path and bound by the
          path's slowest link, the paper's §4 critique.  The shapers
          alone drop nothing; a fault still loses chunks. *)

val all : protocol list

val name : protocol -> string
(** The label of the protocol's {!Run_result.t} and of every metric
    its observed run registers. *)

val run_one :
  ?cfg:Inrpp.Config.t -> ?horizon:float -> ?obs:Obs.Observer.t ->
  ?faults:Fault.Schedule.t -> ?workload:Workload.Gen.spec -> protocol ->
  Topology.Graph.t -> Inrpp.Protocol.flow_spec list -> Run_result.t
(** Every protocol runs with [cfg]'s chunk and queue sizes and stops
    at [horizon] (default 120 s).  [obs] instruments the run.
    [faults] replays the same schedule against whichever protocol
    runs — a schedule is an immutable value, so passing one to every
    protocol makes the failures apples-to-apples (INRPP recovers
    in-network; the baselines fall back on end-to-end loss recovery).
    [workload] appends the flows {!Inrpp.Protocol.expand} generates
    behind the static list; generation is a pure function of
    [(workload, g)], so each protocol (and each call) sees the
    identical flow set — matched-scenario by construction. *)

val run_all :
  ?cfg:Inrpp.Config.t -> ?horizon:float -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t list
(** {!run_one} for every protocol of {!all}, in that order. *)
