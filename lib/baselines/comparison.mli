(** Matched-scenario comparison: INRPP against the e2e baselines.

    Runs the same topology and flow set through INRPP (chunk-level,
    {!Inrpp.Protocol}), AIMD, MPTCP, RCP and HBH, and returns one
    {!Run_result.t} per protocol — the `protocols` experiment. *)

type protocol =
  | Inrpp_proto
  | Aimd_proto
  | Mptcp_proto
  | Rcp_proto
  | Hbh_proto  (** hop-by-hop interest shaping, the paper's ref. [45] *)

val all : protocol list
val name : protocol -> string

val run_one :
  ?cfg:Inrpp.Config.t -> ?horizon:float -> ?obs:Obs.Observer.t ->
  ?faults:Fault.Schedule.t -> ?workload:Workload.Gen.spec -> protocol ->
  Topology.Graph.t -> Inrpp.Protocol.flow_spec list -> Run_result.t
(** The INRPP chunk size, queue size and horizon are taken from / kept
    consistent with [cfg] across all protocols.  [obs] instruments the
    run (every protocol now accepts an observer).  [faults] replays
    the same schedule against whichever protocol runs — a schedule is
    an immutable value, so passing one to every protocol makes the
    failures apples-to-apples (INRPP recovers in-network; the
    baselines fall back on end-to-end loss recovery).  [workload]
    appends flows generated by {!Workload.Gen} behind the static list;
    generation is a pure function of [(workload, g)], so each protocol
    (and each call) sees the identical flow set — matched-scenario by
    construction. *)

val run_all :
  ?cfg:Inrpp.Config.t -> ?horizon:float -> Topology.Graph.t ->
  Inrpp.Protocol.flow_spec list -> Run_result.t list
(** {!run_one} for every protocol of {!all}, in that order. *)
