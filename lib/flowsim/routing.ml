module Graph = Topology.Graph
module Dijkstra = Topology.Dijkstra
module Ecmp_paths = Topology.Ecmp

type strategy =
  | Sp
  | Ecmp of int
  | Inrp of Allocation.inrp_options

let sp = Sp
let ecmp = Ecmp 8
let inrp = Inrp Allocation.default_inrp

let name = function
  | Sp -> "SP"
  | Ecmp _ -> "ECMP"
  | Inrp _ -> "INRP"

let is_inrp = function
  | Inrp _ -> true
  | Sp | Ecmp _ -> false

(* (src, dst) packed into one int: keeps ECMP cache lookups off the
   polymorphic hasher and allocation-free on the per-flow path *)
let pair_key src dst = (src lsl 31) lor dst

type t = {
  g : Graph.t;
  strat : strategy;
  trees : (Topology.Node.id, Dijkstra.tree) Hashtbl.t;
  ecmp_cache : (int, Topology.Path.t list) Hashtbl.t;
  table : Topology.Detour.Table.t option;  (* INRP only *)
}

let create g strat =
  {
    g;
    strat;
    trees = Hashtbl.create 32;
    ecmp_cache = Hashtbl.create 64;
    table =
      (match strat with
      | Inrp _ -> Some (Topology.Detour.Table.create g)
      | Sp | Ecmp _ -> None);
  }

let strategy t = t.strat

let tree t src =
  match Hashtbl.find_opt t.trees src with
  | Some tr -> tr
  | None ->
    let tr = Dijkstra.run ~metric:Dijkstra.Hops t.g src in
    Hashtbl.add t.trees src tr;
    tr

let shortest_hops t src dst = Dijkstra.hop_distance (tree t src) dst

let route t ~flow_id src dst =
  match t.strat with
  | Sp | Inrp _ -> Dijkstra.path_to (tree t src) dst
  | Ecmp limit ->
    let paths =
      match Hashtbl.find_opt t.ecmp_cache (pair_key src dst) with
      | Some ps -> ps
      | None ->
        let ps = Ecmp_paths.equal_cost_paths ~limit t.g src dst in
        Hashtbl.add t.ecmp_cache (pair_key src dst) ps;
        ps
    in
    Ecmp_paths.pick paths ~flow_id

let detours t l =
  match t.table with
  | Some table -> Topology.Detour.Table.find table l
  | None -> []
