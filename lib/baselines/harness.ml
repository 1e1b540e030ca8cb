module Graph = Topology.Graph
module Path = Topology.Path
module Net = Chunksim.Net
module Packet = Chunksim.Packet
module Session = Inrpp.Session

type flow = {
  spec : Inrpp.Protocol.flow_spec;
  sess : Session.t;
  wires : int array;
  paths : Path.t array;
}

type env = {
  eng : Sim.Engine.t;
  net : Net.t;
  forwarders : Forwarder.t array;
  chunk_bits : float;
  flows : flow array;
  every : float -> (unit -> unit) -> unit;
}

type receiver = {
  start : unit -> unit;
  on_data : subflow:int -> int -> [ `New | `Duplicate ] -> unit;
  retransmissions : unit -> int;
  metrics : (string * (unit -> float)) list;
  series : (string * (unit -> float)) list;
}

let request env f ~subflow ~nc ~ack =
  Net.inject env.net ~at:f.spec.Inrpp.Protocol.dst
    (Packet.request ~flow:f.wires.(subflow) ~nc ~ack ~ac:nc)

let install_path forwarders g ~wire (path : Path.t) =
  let nodes = Array.of_list path.Path.nodes in
  let links = Array.of_list path.Path.links in
  let n = Array.length nodes in
  for k = 0 to n - 1 do
    let data_link = if k < n - 1 then Some links.(k) else None in
    let req_link =
      if k > 0 then Graph.find_link g nodes.(k) nodes.(k - 1) else None
    in
    Forwarder.install_flow forwarders.(nodes.(k)) ~flow:wire ~data_link
      ~req_link
  done

(* Up to [paths_per_flow] link-disjoint paths per flow, one wire id per
   path, allocated densely in flow then path order; every node's
   handler is its plain forwarder.  Also returns wire -> (flow,
   subflow). *)
let prepare ?queue_bits ~paths_per_flow ~chunk_bits ~every g specs =
  let paths =
    Array.map
      (fun { Inrpp.Protocol.src; dst; _ } ->
        match Topology.Yen.k_disjoint g ~k:paths_per_flow src dst with
        | [] ->
          invalid_arg
            (Printf.sprintf "Harness.run: flow %d -> %d unroutable" src dst)
        | ps -> Array.of_list ps)
      specs
  in
  let ends =
    Array.concat
      (Array.to_list
         (Array.mapi (fun i -> Array.mapi (fun j _ -> (i, j))) paths))
  in
  let eng = Sim.Engine.create () in
  let net = Net.create ?queue_bits eng g in
  let forwarders =
    Array.init (Graph.node_count g) (fun node ->
        let fwd = Forwarder.create ~net ~wires:(Array.length ends) in
        Net.set_handler net node (Forwarder.handler fwd);
        fwd)
  in
  let next_wire = ref 0 in
  let flows =
    Array.map2
      (fun (spec : Inrpp.Protocol.flow_spec) paths ->
        let wires =
          Array.map
            (fun p ->
              let wire = !next_wire in
              incr next_wire;
              install_path forwarders g ~wire p;
              wire)
            paths
        in
        {
          spec;
          sess = Session.create ~total_chunks:spec.Inrpp.Protocol.chunks;
          wires;
          paths;
        })
      specs paths
  in
  ({ eng; net; forwarders; chunk_bits; flows; every }, ends)

(* unloaded latency of a path: propagation plus one serialisation per
   hop — the floor against which receivers measure queueing delay *)
let path_base_delay ~chunk_bits (path : Path.t) =
  List.fold_left
    (fun acc (l : Topology.Link.t) ->
      acc +. l.Topology.Link.delay +. (chunk_bits /. l.Topology.Link.capacity))
    0. path.Path.links

(* Callback metrics on the forwarders and interfaces plus sampled
   per-interface series; returns the installed sampler, not started. *)
let observe_net o ~proto_label env ~horizon =
  let reg = Obs.Observer.registry o in
  Array.iteri
    (fun node fwd ->
      Obs.Metric.callback reg
        ~labels:[ proto_label; ("node", string_of_int node) ]
        "forwarder_drops_total"
        (fun () -> float_of_int (Forwarder.drops fwd)))
    env.forwarders;
  let link_labels i =
    [ proto_label;
      ("link", string_of_int (Chunksim.Iface.link i).Topology.Link.id) ]
  in
  Net.iter_ifaces env.net (fun i ->
      let f name fn = Obs.Metric.callback reg ~labels:(link_labels i) name fn in
      f "iface_tx_bits_total" (fun () -> Chunksim.Iface.tx_bits i);
      f "iface_drops_total" (fun () ->
          float_of_int (Chunksim.Iface.drops i));
      f "iface_queue_bits" (fun () -> Chunksim.Iface.queue_occupancy i));
  let smp =
    Obs.Observer.install_sampler o ~eng:env.eng
      ~default_interval:(horizon /. 200.)
  in
  Net.iter_ifaces env.net (fun i ->
      let track name fn =
        ignore (Obs.Sampler.track smp ~labels:(link_labels i) name fn)
      in
      track "iface_queue_bits" (fun () -> Chunksim.Iface.queue_occupancy i);
      track "iface_utilisation" (fun () ->
          Chunksim.Iface.utilisation i ~now:(Sim.Engine.now env.eng)));
  smp

let run ~protocol ~paths_per_flow ?(chunk_bits = 10e3 *. 8.) ?queue_bits
    ?(horizon = 120.) ?obs ?faults receivers g specs =
  if paths_per_flow < 1 then invalid_arg "Harness.run: paths_per_flow < 1";
  if specs = [] then invalid_arg "Harness.run: no flows";
  let specs = Array.of_list specs in
  Array.iter (Inrpp.Protocol.check_spec "Harness.run") specs;
  let ticks = ref [] in
  let env, ends =
    prepare ?queue_bits ~paths_per_flow ~chunk_bits
      ~every:(fun interval f -> ticks := (interval, f) :: !ticks)
      g specs
  in
  let eng = env.eng and flows = env.flows in
  (match faults with
  | Some sched when not (Fault.Schedule.is_empty sched) ->
    ignore (Fault.Driver.install env.net sched : Fault.Driver.t)
  | Some _ | None -> ());
  let nflows = Array.length flows in
  let proto_label = ("protocol", protocol) in
  let flow_labels i = [ proto_label; ("flow", string_of_int i) ] in
  (* receiver-side distributions, only when observed: queueing delay per
     delivered chunk, then FCT per completed flow *)
  let observe_chunk, observe_fct =
    match obs with
    | None -> ((fun ~wire:_ ~born:_ -> ()), fun _ -> ())
    | Some o ->
      let reg = Obs.Observer.registry o in
      let qdelay =
        Array.init nflows (fun i ->
            Obs.Metric.histogram reg ~labels:(flow_labels i) ~lo:0. ~hi:10.
              ~bins:50 "chunk_queueing_delay_seconds")
      in
      let base =
        Array.map
          (fun (i, j) -> path_base_delay ~chunk_bits flows.(i).paths.(j))
          ends
      in
      let fct =
        Obs.Metric.histogram reg ~labels:[ proto_label ] ~lo:0. ~hi:horizon
          ~bins:64 "flow_fct_seconds"
      in
      ( (fun ~wire ~born ->
          let d = Sim.Engine.now eng -. born -. base.(wire) in
          Obs.Metric.observe qdelay.(fst ends.(wire)) (Float.max 0. d)),
        Obs.Metric.observe fct )
  in
  let fcts = Array.make nflows None in
  let completed = ref 0 in
  let finished_at = ref None in
  let receivers = receivers env in
  let deliver ~wire idx =
    let i, subflow = ends.(wire) in
    let f = flows.(i) and r = receivers.(i) in
    if not (Session.is_complete f.sess) then begin
      let verdict = Session.receive f.sess idx in
      if Session.is_complete f.sess then begin
        let now = Sim.Engine.now eng in
        let fct = now -. f.spec.Inrpp.Protocol.start in
        fcts.(i) <- Some fct;
        observe_fct fct;
        incr completed;
        if !completed = nflows then finished_at := Some now
      end;
      r.on_data ~subflow idx verdict
    end
  in
  (* endpoints: a producer answers a request from the flow's source, a
     consumer hands data to the flow's receiver *)
  Array.iter
    (fun fwd ->
      Forwarder.set_local_producer fwd (fun p ->
          match p.Packet.header with
          | Packet.Request { nc; _ } ->
            let wire = Packet.flow p in
            let spec = flows.(fst ends.(wire)).spec in
            if nc < spec.Inrpp.Protocol.chunks then
              Forwarder.originate_data
                env.forwarders.(spec.Inrpp.Protocol.src)
                (Packet.data ~flow:wire ~idx:nc ~born:(Sim.Engine.now eng)
                   chunk_bits)
          | Packet.Data _ | Packet.Backpressure _ -> ());
      Forwarder.set_local_consumer fwd (fun p ->
          match p.Packet.header with
          | Packet.Data { flow; idx; born; _ } ->
            observe_chunk ~wire:flow ~born;
            deliver ~wire:flow idx
          | Packet.Request _ | Packet.Backpressure _ -> ()))
    env.forwarders;
  (match obs with
  | None -> ()
  | Some o ->
    let reg = Obs.Observer.registry o in
    let smp = observe_net o ~proto_label env ~horizon in
    Array.iteri
      (fun i r ->
        let labels = flow_labels i in
        let received () =
          float_of_int (Session.received_count flows.(i).sess)
        in
        List.iter
          (fun (name, fn) -> Obs.Metric.callback reg ~labels name fn)
          r.metrics;
        List.iter
          (fun (name, fn) -> ignore (Obs.Sampler.track smp ~labels name fn))
          (r.series @ [ ("chunks_received", received) ]))
      receivers;
    Obs.Sampler.start ~stop:(fun () -> !completed = nflows) smp);
  List.iter
    (fun (interval, f) ->
      ignore
        (Sim.Engine.schedule_periodic eng ~interval (fun () ->
             f ();
             !completed < nflows)))
    (List.rev !ticks);
  Array.iteri
    (fun i f ->
      ignore
        (Sim.Engine.schedule eng ~delay:f.spec.Inrpp.Protocol.start
           receivers.(i).start))
    flows;
  Sim.Engine.run ~until:horizon eng;
  Run_result.make ~protocol ~fcts ~chunk_bits
    ~chunks:(Array.map (fun f -> f.spec.Inrpp.Protocol.chunks) flows)
    ~drops:
      (Array.fold_left (fun acc f -> acc + Forwarder.drops f) 0 env.forwarders)
    ~retransmissions:
      (Array.fold_left (fun acc r -> acc + r.retransmissions ()) 0 receivers)
    ~sim_time:(Option.value !finished_at ~default:(Sim.Engine.now eng))
