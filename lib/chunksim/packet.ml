type t =
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
      detour_route : Topology.Node.id list;
      born_bits : int;
      size : float;
    }
  | Backpressure of {
      flow : int;
      engage : bool;
    }

let control_bits = 50. *. 8.

let request ~flow ~nc ~ack ~ac =
  if nc < 0 then invalid_arg "Packet.request: nc < 0";
  if ac < nc then invalid_arg "Packet.request: ac < nc";
  Request { flow; nc; ack; ac; route = [] }

(* A non-negative float's IEEE bits have bit 63 clear, so they fit in
   an immediate int.  [Int64.of_int] sign-extends bit 62 (set from
   2.0 up) into bit 63; the decode masks it off again. *)
let born_of_bits b =
  Int64.float_of_bits (Int64.logand (Int64.of_int b) Int64.max_int)

let data ?(detour_route = []) ~flow ~idx ~born chunk_bits =
  if chunk_bits <= 0. then invalid_arg "Packet.data: chunk_bits <= 0";
  if idx < 0 then invalid_arg "Packet.data: idx < 0";
  if not (born >= 0.) then invalid_arg "Packet.data: born < 0 or NaN";
  let born_bits = Int64.to_int (Int64.bits_of_float born) in
  Data { flow; idx; detour_route; born_bits; size = chunk_bits }

let backpressure ~flow ~engage = Backpressure { flow; engage }

let vacant = backpressure ~flow:(-1) ~engage:false

let size = function
  | Data { size; _ } -> size
  | Request _ | Backpressure _ -> control_bits

let flow = function
  | Request { flow; _ } | Data { flow; _ } | Backpressure { flow; _ } -> flow

let is_data = function
  | Data _ -> true
  | Request _ | Backpressure _ -> false
