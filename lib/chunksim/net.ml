module Graph = Topology.Graph
module Link = Topology.Link

type handler = from:Topology.Link.t option -> Packet.t -> unit

type t = {
  g : Graph.t;
  eng : Sim.Engine.t;
  ifaces : Iface.t array;
  handlers : handler array;
  (* fault plumbing: a wire filter can swallow packets before they
     reach an interface (control-plane loss bursts); the net-level
     counter also absorbs kills reported by dead-node sinks *)
  mutable wire_filter : (Link.t -> Packet.t -> bool) option;
  mutable net_fault_drops : int;
}

let silent ~from:_ (_ : Packet.t) = ()

let create ?queue_bits ?discipline ?loss_rate eng g =
  (* one loss stream per interface, split in link-id order *)
  let loss_rng = Sim.Rng.create 0xbadL in
  (* every interface's packets on the wire, in pages of one pool *)
  let pool = Sim.Engine.pool ~filler:Packet.vacant in
  let handlers = Array.make (Graph.node_count g) silent in
  let t =
    {
      g;
      eng;
      ifaces = [||];
      handlers;
      wire_filter = None;
      net_fault_drops = 0;
    }
  in
  (* interfaces deliver into the destination node's *current* handler;
     the indirection through the record lets handlers be installed after
     interface construction *)
  let make_iface (l : Link.t) =
    let loss = Option.map (fun p -> (p, Sim.Rng.split loss_rng)) loss_rate in
    let from = Some l in
    Iface.create ?queue_bits ?discipline ?loss ~pool eng l
      ~deliver:(fun p -> t.handlers.(l.Link.dst) ~from p)
  in
  let ifaces = Array.init (Graph.link_count g) (fun i -> make_iface (Graph.link g i)) in
  { t with ifaces }

let graph t = t.g
let engine t = t.eng

let set_handler t node h = t.handlers.(node) <- h

let iface t link_id = t.ifaces.(link_id)

let iter_ifaces t f = Array.iter f t.ifaces

let send t ~via p =
  match t.wire_filter with
  | Some f when f via p ->
    (* swallowed in transit: to the sender it looks like wire loss *)
    t.net_fault_drops <- t.net_fault_drops + 1;
    `Queued
  | Some _ | None -> Iface.send t.ifaces.(via.Link.id) p

let inject t ~at p = t.handlers.(at) ~from:None p

let total_wire_losses t =
  Array.fold_left (fun acc i -> acc + Iface.wire_losses i) 0 t.ifaces

let handler t node = t.handlers.(node)

let set_wire_filter t f = t.wire_filter <- f

let set_fault_tap t f = Array.iter (fun i -> Iface.set_fault_tap i f) t.ifaces

let note_fault_kill t = t.net_fault_drops <- t.net_fault_drops + 1

let total_fault_drops t =
  t.net_fault_drops
  + Array.fold_left (fun acc i -> acc + Iface.fault_drops i) 0 t.ifaces

let mean_utilisation t =
  let n = Array.length t.ifaces in
  if n = 0 then 0.
  else begin
    let now = Sim.Engine.now t.eng in
    Array.fold_left (fun acc i -> acc +. Iface.utilisation i ~now) 0. t.ifaces
    /. float_of_int n
  end
