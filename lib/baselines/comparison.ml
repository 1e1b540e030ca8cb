type protocol =
  | Inrpp_proto
  | Aimd_proto
  | Mptcp_proto
  | Rcp_proto
  | Hbh_proto

let all = [ Inrpp_proto; Aimd_proto; Mptcp_proto; Rcp_proto; Hbh_proto ]

let name = function
  | Inrpp_proto -> "INRPP"
  | Aimd_proto -> "AIMD"
  | Mptcp_proto -> "MPTCP"
  | Rcp_proto -> "RCP"
  | Hbh_proto -> "HBH"

let inrpp_as_run_result ~cfg (r : Inrpp.Protocol.result) =
  let flows = r.Inrpp.Protocol.flows in
  Run_result.make ~protocol:"INRPP"
    ~fcts:(Array.map (fun fr -> fr.Inrpp.Protocol.fct) flows)
    ~chunk_bits:cfg.Inrpp.Config.chunk_bits
    ~chunks:
      (Array.map (fun fr -> fr.Inrpp.Protocol.spec.Inrpp.Protocol.chunks) flows)
    ~drops:r.Inrpp.Protocol.total_drops
    ~retransmissions:
      (Array.fold_left
         (fun acc fr -> acc + fr.Inrpp.Protocol.duplicates)
         0 flows)
    ~sim_time:r.Inrpp.Protocol.sim_time

(* every protocol runs the flows [Inrpp.Protocol.expand] gives for
   [(workload, g, specs)], a pure function, so each sees the same set *)
let run_one ?(cfg = Inrpp.Config.default) ~horizon ?obs ?faults ?workload
    protocol g specs =
  let baseline paths_per_flow receivers =
    Harness.run ~protocol:(name protocol) ~paths_per_flow
      ~chunk_bits:cfg.Inrpp.Config.chunk_bits
      ~queue_bits:cfg.Inrpp.Config.queue_bits ~horizon ?obs ?faults receivers g
      (Inrpp.Protocol.expand workload g specs)
  in
  match protocol with
  | Inrpp_proto ->
    inrpp_as_run_result ~cfg
      (Inrpp.Protocol.run ~cfg ~horizon ?obs ?faults ?workload g specs)
  | Aimd_proto -> baseline 1 (Puller.receivers ~coupled:false)
  | Mptcp_proto -> baseline 2 (Puller.receivers ~coupled:true)
  | Rcp_proto -> baseline 1 Rcp.receivers
  | Hbh_proto -> baseline 1 Hbh.receivers

let run_all ?cfg ~horizon g specs =
  List.map (fun p -> run_one ?cfg ~horizon p g specs) all
