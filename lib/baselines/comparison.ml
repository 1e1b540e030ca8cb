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

let inrpp_as_run_result ~cfg ~(specs : Inrpp.Protocol.flow_spec list)
    (r : Inrpp.Protocol.result) =
  let fcts = Array.map (fun fr -> fr.Inrpp.Protocol.fct) r.Inrpp.Protocol.flows in
  Run_result.make ~protocol:"INRPP" ~fcts
    ~chunk_bits:cfg.Inrpp.Config.chunk_bits
    ~chunks:
      (Array.of_list (List.map (fun sp -> sp.Inrpp.Protocol.chunks) specs))
    ~drops:r.Inrpp.Protocol.total_drops
    ~retransmissions:
      (Array.fold_left
         (fun acc fr -> acc + fr.Inrpp.Protocol.duplicates)
         0 r.Inrpp.Protocol.flows)
    ~sim_time:r.Inrpp.Protocol.sim_time

(* the workload is resolved to a concrete flow list up front — every
   protocol must see the same flows, so generation happens once here
   (per call) rather than inside each protocol's runner *)
let resolve_specs ?workload g specs =
  match workload with
  | None -> specs
  | Some w ->
    specs
    @ List.map
        (fun (r : Workload.Request.t) ->
          Inrpp.Protocol.flow_spec ~start:r.Workload.Request.start
            ~content:r.Workload.Request.content ~src:r.Workload.Request.src
            ~dst:r.Workload.Request.dst r.Workload.Request.chunks)
        (Workload.Gen.requests w g)

let run_one ?(cfg = Inrpp.Config.default) ?(horizon = 120.) ?obs ?faults
    ?workload protocol g specs =
  let specs = resolve_specs ?workload g specs in
  let chunk_bits = cfg.Inrpp.Config.chunk_bits in
  let queue_bits = cfg.Inrpp.Config.queue_bits in
  match protocol with
  | Inrpp_proto ->
    inrpp_as_run_result ~cfg ~specs
      (Inrpp.Protocol.run ~cfg ~horizon ?obs ?faults g specs)
  | Aimd_proto ->
    Aimd.run ~chunk_bits ~queue_bits ~horizon ?obs ?faults g specs
  | Mptcp_proto ->
    Mptcp.run ~chunk_bits ~queue_bits ~horizon ?obs ?faults g specs
  | Rcp_proto -> Rcp.run ~chunk_bits ~queue_bits ~horizon ?obs ?faults g specs
  | Hbh_proto -> Hbh.run ~chunk_bits ~queue_bits ~horizon ?obs ?faults g specs

let run_all ?cfg ?horizon g specs =
  List.map (fun p -> run_one ?cfg ?horizon p g specs) all
