type t = {
  id : int;
  src : Topology.Node.id;
  dst : Topology.Node.id;
  size : float;
  arrival : float;
  shortest_hops : int;
  mutable path : Topology.Path.t;
  mutable remaining : float;
  mutable rate : float;
  mutable effective_hops : float;
  mutable delivered_bits : float;
  mutable weighted_hops : float;
  mutable completed_at : float option;
}

let make ~id ~src ~dst ~size ~arrival ~shortest_hops ~path =
  if size <= 0. then invalid_arg "Flow.make: size <= 0";
  if src = dst then invalid_arg "Flow.make: src = dst";
  {
    id;
    src;
    dst;
    size;
    arrival;
    shortest_hops;
    path;
    remaining = size;
    rate = 0.;
    effective_hops = float_of_int (Topology.Path.hops path);
    delivered_bits = 0.;
    weighted_hops = 0.;
    completed_at = None;
  }

let advance f ~dt =
  if dt < 0. then invalid_arg "Flow.advance: negative dt";
  let drained = Float.min f.remaining (f.rate *. dt) in
  f.remaining <- f.remaining -. drained;
  f.delivered_bits <- f.delivered_bits +. drained;
  f.weighted_hops <- f.weighted_hops +. (drained *. f.effective_hops)

let stretch f =
  if f.delivered_bits <= 0. || f.shortest_hops = 0 then 1.
  else
    f.weighted_hops /. f.delivered_bits /. float_of_int f.shortest_hops

let fct f = Option.map (fun t -> t -. f.arrival) f.completed_at

