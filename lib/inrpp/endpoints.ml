module Graph = Topology.Graph
module Link = Topology.Link
module Path = Topology.Path
module Net = Chunksim.Net
module Packet = Chunksim.Packet

(* recovery time runs from each disruption to the next delivery
   anywhere in the network *)
let note_recovery (w : Wiring.t) now =
  match w.pending_disruptions with
  | [] -> ()
  | ds ->
    List.iter (fun t0 -> w.recovery_total <- w.recovery_total +. (now -. t0))
      ds;
    w.recovery_count <- w.recovery_count + List.length ds;
    w.pending_disruptions <- []

let complete_flow (w : Wiring.t) flow ~fct =
  w.fcts.(flow) <- Some fct;
  (* teardown: recycle this flow's entry at every node it was placed
     on (fcts is set first, so reconvergence will not resurrect the
     entries) *)
  if w.cfg.Config.flow_teardown then begin
    List.iter
      (fun nd -> Router.release_flow w.routers.(nd) ~flow)
      w.install_sites.(flow);
    w.install_sites.(flow) <- []
  end;
  w.completed <- w.completed + 1;
  if Wiring.all_done w then w.finished_at <- Some (Sim.Engine.now w.eng);
  Instrumentation.completed w.ins ~flow ~fct

let attach (w : Wiring.t) ~faulted =
  let { Wiring.cfg; eng; net; ins; routers; specs; routes; data_routes;
        req_routes; _ } =
    w
  in
  let trace = Instrumentation.trace ins in
  let pitless = cfg.Config.pitless in
  (* senders sharing an outgoing link pace at its processor-sharing
     share (§3.2: flows multiplexed processor-sharing); sharers.(l)
     counts the flows whose route starts on link l.  Every route has a
     first link, since src <> dst. *)
  let sharers = Array.make (Graph.link_count w.g) 0 in
  Array.iter
    (fun (p : Path.t) ->
      let l = (List.hd p.Path.links).Link.id in
      sharers.(l) <- sharers.(l) + 1)
    routes;
  let endpoints =
    Array.init (Array.length specs) (fun flow ->
        let { Wiring.src; dst; chunks; _ } = specs.(flow) in
        let pace_rate =
          let l = List.hd routes.(flow).Path.links in
          l.Link.capacity /. float_of_int sharers.(l.Link.id)
        in
        let src_router = routers.(src) in
        let transmit p =
          (* a crashed producer node transmits nothing (and the chunk is
             not counted as pushed — it never reached any wire) *)
          if not (Router.is_crashed src_router) then begin
            Instrumentation.pushed ins p;
            let p =
              if pitless then begin
                match p with
                | Packet.Data d ->
                  Packet.Data { d with detour_route = data_routes.(flow) }
                | Packet.Request _ | Packet.Backpressure _ -> p
              end
              else p
            in
            Router.originate_data src_router p
          end
        in
        let sender =
          Sender.create ~cfg ~eng ?trace ~flow ~total_chunks:chunks ~pace_rate
            ~transmit ()
        in
        let receiver =
          Receiver.create ~cfg ~eng ~flow ~total_chunks:chunks
            ~send_request:(fun p ->
              let p =
                if pitless then begin
                  match p with
                  | Packet.Request r ->
                    Packet.Request { r with route = req_routes.(flow) }
                  | Packet.Data _ | Packet.Backpressure _ -> p
                end
                else p
              in
              Net.inject net ~at:dst p)
            ~on_complete:(complete_flow w flow)
            ~overload:w.overload ()
        in
        (sender, receiver))
  in
  let senders = Array.map fst endpoints in
  let receivers = Array.map snd endpoints in
  (* a node dispatches to the endpoints of the flows it is an end of;
     a packet of any other flow is ignored *)
  let producer = Array.make (Graph.node_count w.g) false in
  let consumer = Array.make (Graph.node_count w.g) false in
  Array.iter
    (fun (s : Wiring.flow_spec) ->
      producer.(s.src) <- true;
      consumer.(s.dst) <- true)
    specs;
  for node = 0 to Graph.node_count w.g - 1 do
    let router = routers.(node) in
    if producer.(node) then
      Router.set_local_producer router (fun p ->
          let flow = Packet.flow p in
          if specs.(flow).src = node then Sender.handle senders.(flow) p);
    if consumer.(node) then
      Router.set_local_consumer router (fun p ->
          if faulted && Packet.is_data p then
            note_recovery w (Sim.Engine.now eng);
          Instrumentation.delivered ins ~node p;
          let flow = Packet.flow p in
          if specs.(flow).dst = node then
            Receiver.handle_data receivers.(flow) p);
    Net.set_handler net node (Router.handler router)
  done;
  (senders, receivers)
