module Packet = Chunksim.Packet
module Link = Topology.Link
module Session = Inrpp.Session

(* Per-node, per-flow shaping state: requests queue here and leave
   paced at the flow's share of its data link. *)
type shaper = {
  rq : Packet.t Queue.t;
  mutable busy : bool;
  pace_gap : float;  (* seconds between forwarded requests *)
}

(* interests each consumer keeps in flight *)
let window = 32

(* an interest unanswered for this long is re-expressed; well above
   any queueing delay the shapers build, so only a lost chunk expires *)
let deadline = 5.

let receivers g (env : Harness.env) =
  let eng = env.Harness.eng and chunk_bits = env.Harness.chunk_bits in
  let flows = env.Harness.flows in
  (* how many flows send data over each directed link: the processor
     sharing denominator of the shaper *)
  let sharers = Array.make (Topology.Graph.link_count g) 0 in
  Array.iter
    (fun (f : Harness.flow) ->
      List.iter
        (fun (l : Link.t) -> sharers.(l.Link.id) <- sharers.(l.Link.id) + 1)
        f.Harness.paths.(0).Topology.Path.links)
    flows;
  (* [shapers.(node).(wire)], made at the node's first request on the
     wire; with one path per flow, wire [i] is flow [i] *)
  let shapers =
    Array.map
      (fun _ -> Array.make (Array.length flows) None)
      env.Harness.forwarders
  in
  let shaper_for node wire =
    match shapers.(node).(wire) with
    | Some sh -> sh
    | None ->
      let pace_gap =
        match
          List.find_opt
            (fun (l : Link.t) -> l.Link.src = node)
            flows.(wire).Harness.paths.(0).Topology.Path.links
        with
        | Some l ->
          chunk_bits
          /. (l.Link.capacity /. float_of_int (max 1 sharers.(l.Link.id)))
        | None -> 0.
      in
      let sh =
        {
          rq = Queue.create ();
          busy = false;
          pace_gap = Float.max 1e-6 pace_gap;
        }
      in
      shapers.(node).(wire) <- Some sh;
      sh
  in
  let rec service fwd sh =
    if not sh.busy then begin
      match Queue.take_opt sh.rq with
      | None -> ()
      | Some p ->
        sh.busy <- true;
        Forwarder.handler fwd ~from:None p;
        ignore
          (Sim.Engine.schedule eng ~delay:sh.pace_gap (fun () ->
               sh.busy <- false;
               service fwd sh))
    end
  in
  (* the one handler override: requests queue for shaping, everything
     else forwards plainly *)
  Array.iteri
    (fun node fwd ->
      Chunksim.Net.set_handler env.Harness.net node (fun ~from p ->
          match p.Packet.header with
          | Packet.Request _ ->
            let sh = shaper_for node (Packet.flow p) in
            Queue.add p sh.rq;
            service fwd sh
          | Packet.Data _ | Packet.Backpressure _ ->
            Forwarder.handler fwd ~from p))
    env.Harness.forwarders;
  (* consumers: [window] interests in flight, topped up by a periodic
     refresh rather than per arrival, which keeps the data path simple;
     the shapers inside the network do the congestion control.  An
     interest past [deadline] is requeued, checked every 0.1 s *)
  Array.map
    (fun (f : Harness.flow) ->
      let fetch = Puller.fetch f.Harness.sess in
      let outstanding = Hashtbl.create 32 in
      let finished () = Session.is_complete f.Harness.sess in
      let rec top_up () =
        if not (finished ()) then begin
          if Hashtbl.length outstanding < window then begin
            match Puller.next_chunk fetch with
            | Some nc ->
              Hashtbl.replace outstanding nc (Sim.Engine.now eng);
              Harness.request env f ~subflow:0 ~nc ~ack:0
            | None -> ()
          end;
          ignore (Sim.Engine.schedule eng ~delay:(chunk_bits /. 10e6) top_up)
        end
      in
      let rec check_timeouts () =
        if not (finished ()) then begin
          ignore
            (Puller.expire fetch outstanding ~now:(Sim.Engine.now eng)
               ~deadline);
          ignore (Sim.Engine.schedule eng ~delay:0.1 check_timeouts)
        end
      in
      {
        Harness.start =
          (fun () ->
            top_up ();
            check_timeouts ());
        on_data = (fun ~subflow:_ idx _ -> Hashtbl.remove outstanding idx);
        retransmissions = (fun () -> Puller.retransmissions fetch);
        metrics = [];
        series = [];
      })
    flows

let run ?chunk_bits ?queue_bits ?horizon ?obs ?faults g specs =
  Harness.run ~protocol:"HBH" ~paths_per_flow:1 ?chunk_bits ?queue_bits
    ?horizon ?obs ?faults (receivers g) g specs
