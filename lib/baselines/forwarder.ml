module Packet = Chunksim.Packet
module Net = Chunksim.Net

type entry = {
  data_link : Topology.Link.t option;
  req_link : Topology.Link.t option;
}

type t = {
  net : Net.t;
  flows : entry option array;  (* by wire id *)
  mutable drop_count : int;
  mutable local_producer : (Packet.t -> unit) option;
  mutable local_consumer : (Packet.t -> unit) option;
}

let create ~net ~wires =
  {
    net;
    flows = Array.make wires None;
    drop_count = 0;
    local_producer = None;
    local_consumer = None;
  }

let install_flow t ~flow ~data_link ~req_link =
  t.flows.(flow) <- Some { data_link; req_link }

let set_local_producer t f = t.local_producer <- Some f
let set_local_consumer t f = t.local_consumer <- Some f

let drop t = t.drop_count <- t.drop_count + 1

let forward_data t (p : Packet.t) =
  match t.flows.(Packet.flow p) with
  | None -> drop t
  | Some entry -> begin
    match entry.data_link with
    | Some l -> begin
      match Net.send t.net ~via:l p with
      | `Queued -> ()
      | `Dropped -> drop t
    end
    | None -> begin
      match t.local_consumer with
      | Some consumer -> consumer p
      | None -> drop t
    end
  end

let forward_request t (p : Packet.t) =
  match t.flows.(Packet.flow p) with
  | None -> drop t
  | Some entry -> begin
    match entry.req_link with
    | Some l -> ignore (Net.send t.net ~via:l p)
    | None -> begin
      match t.local_producer with
      | Some producer -> producer p
      | None -> drop t
    end
  end

let handler t : Net.handler =
 fun ~from:_ p ->
  match p.Packet.header with
  | Packet.Data _ -> forward_data t p
  | Packet.Request _ -> forward_request t p
  | Packet.Backpressure _ -> ()

let originate_data = forward_data

let drops t = t.drop_count
