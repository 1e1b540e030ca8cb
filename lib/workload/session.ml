type t = {
  g : Topology.Graph.t;
  producers : Topology.Node.id array;
  consumers : Topology.Node.id array;
  rng : Sim.Rng.t;
  (* every node reaches every other, so any two distinct nodes are a
     routable pair *)
  strong : bool;
  (* otherwise, a per-producer shortest-path tree, computed on first
     draw of that producer — session setup cost stays proportional to
     the producers actually used, not the graph; empty on a strongly
     connected graph *)
  trees : Topology.Dijkstra.tree option array;
}

let nodes_with_roles g roles =
  let all = Topology.Graph.nodes g in
  let picked =
    match roles with
    | [] -> all
    | _ ->
      (match
         List.filter (fun n -> List.mem n.Topology.Node.role roles) all
       with
      | [] -> all (* fallback: a role list matching nothing means "any" *)
      | l -> l)
  in
  Array.of_list (List.map (fun n -> n.Topology.Node.id) picked)

let tree t producer =
  match t.trees.(producer) with
  | Some tr -> tr
  | None ->
    let tr = Topology.Dijkstra.run t.g producer in
    t.trees.(producer) <- Some tr;
    tr

let routable t src dst =
  src <> dst && (t.strong || Topology.Dijkstra.reachable (tree t src) dst)

let create ?(producers = []) ?(consumers = []) ~seed g =
  if Topology.Graph.node_count g < 2 then
    invalid_arg "Session.create: graph has fewer than two nodes";
  let strong = Topology.Graph.is_strongly_connected g in
  let t =
    {
      g;
      producers = nodes_with_roles g producers;
      consumers = nodes_with_roles g consumers;
      rng = Sim.Rng.create seed;
      strong;
      trees =
        (if strong then [||]
         else Array.make (Topology.Graph.node_count g) None);
    }
  in
  let any_routable =
    Array.exists
      (fun p -> Array.exists (fun c -> routable t p c) t.consumers)
      t.producers
  in
  if not any_routable then
    invalid_arg "Session.create: no routable (producer, consumer) pair";
  t

(* draws until a pair is routable *)
let rec draw t =
  let p = t.producers.(Sim.Rng.int t.rng (Array.length t.producers)) in
  let c = t.consumers.(Sim.Rng.int t.rng (Array.length t.consumers)) in
  if routable t p c then (p, c) else draw t
