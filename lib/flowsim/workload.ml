type size_dist =
  | Fixed of float
  | Exponential of float
  | Pareto of { shape : float; mean : float }

let draw_size rng = function
  | Fixed s -> s
  | Exponential m -> Float.max 1. (Sim.Rng.exponential rng ~mean:m)
  | Pareto { shape; mean } ->
    if shape <= 1. then invalid_arg "Workload.draw_size: Pareto shape <= 1";
    let scale = mean *. (shape -. 1.) /. shape in
    Float.max 1. (Sim.Rng.pareto rng ~shape ~scale)

type endpoints =
  | Any_pair
  | Role_pairs of Topology.Node.role list

type t = {
  g : Topology.Graph.t;
  rng : Sim.Rng.t;
  arrival_rate : float;
  size : size_dist;
  candidates : int array;   (* node ids eligible as endpoints *)
}

let create ?(endpoints = Any_pair) ~arrival_rate ~size ~seed g =
  if arrival_rate <= 0. then invalid_arg "Workload.create: arrival_rate <= 0";
  if Topology.Graph.node_count g < 2 then
    invalid_arg "Workload.create: need at least two nodes";
  let all = Array.init (Topology.Graph.node_count g) Fun.id in
  let candidates =
    match endpoints with
    | Any_pair -> all
    | Role_pairs roles ->
      let filtered =
        Array.of_list
          (List.filter_map
             (fun (v : Topology.Node.t) ->
               if List.mem v.Topology.Node.role roles then
                 Some v.Topology.Node.id
               else None)
             (Topology.Graph.nodes g))
      in
      if Array.length filtered < 2 then all else filtered
  in
  { g; rng = Sim.Rng.create seed; arrival_rate; size; candidates }

let next_interarrival t = Sim.Rng.exponential t.rng ~mean:(1. /. t.arrival_rate)

let draw_flow t ~time:_ ~id:_ =
  let n = Array.length t.candidates in
  let src = t.candidates.(Sim.Rng.int t.rng n) in
  let rec other () =
    let d = t.candidates.(Sim.Rng.int t.rng n) in
    if d = src then other () else d
  in
  let dst = other () in
  (src, dst, draw_size t.rng t.size)

