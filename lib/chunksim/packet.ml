type header =
  | Request of {
      flow : int;
      nc : int;
      ack : int;
      ac : int;
      route : Topology.Node.id list;
    }
  | Data of {
      flow : int;
      idx : int;
      anticipated : bool;
      via_detour : bool;
      detour_route : Topology.Node.id list;
      born : float;
    }
  | Backpressure of {
      flow : int;
      engage : bool;
    }

type t = {
  header : header;
  size : float;
}

let request_bits = 50. *. 8.
let backpressure_bits = 50. *. 8.

let request_routed ~route ~flow ~nc ~ack ~ac =
  if nc < 0 then invalid_arg "Packet.request: nc < 0";
  if ac < nc then invalid_arg "Packet.request: ac < nc";
  { header = Request { flow; nc; ack; ac; route }; size = request_bits }

let request ~flow ~nc ~ack ~ac = request_routed ~route:[] ~flow ~nc ~ack ~ac

let data ?(anticipated = false) ?(detour_route = []) ~flow ~idx ~born
    chunk_bits =
  if chunk_bits <= 0. then invalid_arg "Packet.data: chunk_bits <= 0";
  if idx < 0 then invalid_arg "Packet.data: idx < 0";
  {
    header =
      Data { flow; idx; anticipated; via_detour = false; detour_route; born };
    size = chunk_bits;
  }

let backpressure ~flow ~engage =
  { header = Backpressure { flow; engage }; size = backpressure_bits }

let flow t =
  match t.header with
  | Request { flow; _ } | Data { flow; _ } | Backpressure { flow; _ } -> flow

let is_data t =
  match t.header with
  | Data _ -> true
  | Request _ | Backpressure _ -> false

let pp ppf t =
  match t.header with
  | Request { flow; nc; ack; ac; _ } ->
    Format.fprintf ppf "req[f%d nc=%d ack=%d ac=%d]" flow nc ack ac
  | Data { flow; idx; anticipated; via_detour; _ } ->
    Format.fprintf ppf "data[f%d #%d%s%s]" flow idx
      (if anticipated then " ant" else "")
      (if via_detour then " det" else "")
  | Backpressure { flow; engage } ->
    Format.fprintf ppf "bp[f%d %s]" flow (if engage then "engage" else "release")
