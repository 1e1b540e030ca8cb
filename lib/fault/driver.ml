module Net = Chunksim.Net
module Iface = Chunksim.Iface
module Packet = Chunksim.Packet
module Link = Topology.Link

type t = {
  net : Net.t;
  link_state : Topology.Link_state.t option;
  saved : (Topology.Node.id, Net.handler) Hashtbl.t;
  burst_rng : Sim.Rng.t;
  mutable active_bursts : float list; (* loss of each in-progress burst *)
  mutable link_downs : int;
  mutable link_ups : int;
  mutable node_crashes : int;
  mutable node_restarts : int;
  mutable control_drops : int;
}

let mark t link up =
  match t.link_state with
  | Some ls -> Topology.Link_state.set ls link ~up
  | None -> ()

let burst_loss t =
  List.fold_left Float.max 0. t.active_bursts

let make_filter t =
  fun (_ : Link.t) (p : Packet.t) ->
    match p with
    | Packet.Data _ -> false
    | Packet.Request _ | Packet.Backpressure _ ->
      let drop = Sim.Rng.float t.burst_rng 1. < burst_loss t in
      if drop then t.control_drops <- t.control_drops + 1;
      drop

let install ?link_state ?(on_link_flip = fun _ ~up:_ -> ())
    ?(on_node_crash = fun _ _ -> ()) ?(on_node_restart = ignore)
    ?(on_data_killed = ignore) net sched =
  let t =
    {
      net;
      link_state;
      saved = Hashtbl.create 7;
      burst_rng = Sim.Rng.create (Int64.add (Schedule.seed sched) 0x9e37L);
      active_bursts = [];
      link_downs = 0;
      link_ups = 0;
      node_crashes = 0;
      node_restarts = 0;
      control_drops = 0;
    }
  in
  let g = Net.graph net in
  let link_down link policy =
    t.link_downs <- t.link_downs + 1;
    Iface.set_down ~policy (Net.iface net link);
    mark t link false;
    on_link_flip link ~up:false
  in
  let link_up link =
    t.link_ups <- t.link_ups + 1;
    Iface.set_up (Net.iface net link);
    mark t link true;
    on_link_flip link ~up:true
  in
  let node_crash node policy =
    if not (Hashtbl.mem t.saved node) then begin
      t.node_crashes <- t.node_crashes + 1;
      Hashtbl.add t.saved node (Net.handler net node);
      Net.set_handler net node (fun ~from:_ p ->
          (* the dead node destroys everything that reaches it *)
          Net.note_fault_kill net;
          if Packet.is_data p then on_data_killed p);
      let iface_policy =
        match policy with
        | Schedule.Wipe_custody -> `Drop_queued
        | Schedule.Preserve_custody -> `Hold_queued
      in
      List.iter
        (fun (l : Link.t) ->
          Iface.set_down ~policy:iface_policy (Net.iface net l.Link.id);
          mark t l.Link.id false)
        (Topology.Graph.out_links g node);
      (* neighbours' transmitters stay up — their packets die at the
         sink above — but routing must see the links as gone *)
      List.iter
        (fun (l : Link.t) -> mark t l.Link.id false)
        (Topology.Graph.in_links g node);
      on_node_crash node policy
    end
  in
  let node_restart node =
    match Hashtbl.find_opt t.saved node with
    | None -> ()
    | Some h ->
      t.node_restarts <- t.node_restarts + 1;
      Hashtbl.remove t.saved node;
      Net.set_handler net node h;
      List.iter
        (fun (l : Link.t) ->
          Iface.set_up (Net.iface net l.Link.id);
          mark t l.Link.id true)
        (Topology.Graph.out_links g node);
      List.iter
        (fun (l : Link.t) -> mark t l.Link.id true)
        (Topology.Graph.in_links g node);
      on_node_restart node
  in
  let burst_start loss =
    if t.active_bursts = [] then Net.set_wire_filter net (Some (make_filter t));
    t.active_bursts <- loss :: t.active_bursts
  in
  (* removes one instance of the burst's loss, so overlapping bursts
     un-stack *)
  let burst_end loss =
    let rec remove = function
      | [] -> []
      | l :: rest -> if l = loss then rest else l :: remove rest
    in
    t.active_bursts <- remove t.active_bursts;
    if t.active_bursts = [] then Net.set_wire_filter net None
  in
  (* one engine event per timed fault, plus one for the end of each
     burst; events at equal times fire in schedule order *)
  let eng = Net.engine net in
  List.iter
    (fun { Schedule.at; event } ->
      ignore
        (Sim.Engine.schedule_at eng ~time:at (fun () ->
             match event with
             | Schedule.Link_down { link; policy } -> link_down link policy
             | Schedule.Link_up { link } -> link_up link
             | Schedule.Node_crash { node; policy } -> node_crash node policy
             | Schedule.Node_restart { node } -> node_restart node
             | Schedule.Control_loss_burst { duration; loss } ->
               burst_start loss;
               ignore
                 (Sim.Engine.schedule eng ~delay:duration (fun () ->
                      burst_end loss)))))
    (Schedule.events sched);
  t

let link_downs t = t.link_downs
let link_ups t = t.link_ups
let node_crashes t = t.node_crashes
let node_restarts t = t.node_restarts
let control_drops t = t.control_drops
