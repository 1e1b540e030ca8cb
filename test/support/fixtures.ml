(* Synthetic topologies for the graph, routing, detour and flowsim
   tests.  Links are 1 Gbps and 1 ms unless a fixture takes a
   [capacity]; the random family takes an explicit seed and is
   reproducible. *)

open Topology

let default_capacity = 1e9
let default_delay = 1e-3

let named_nodes b prefix n =
  Array.init n (fun i ->
      Graph.Builder.add_node b ~role:Node.Core (Printf.sprintf "%s%d" prefix i))

let edge b u v =
  Graph.Builder.add_edge b ~capacity:default_capacity ~delay:default_delay u v

(* [of_edges n pairs]: [n] nodes named "n<i>", an edge (both
   directions) per pair *)
let of_edges ?capacity ?delay n pairs =
  let b = Graph.Builder.create () in
  for i = 0 to n - 1 do
    ignore (Graph.Builder.add_node b (Printf.sprintf "n%d" i))
  done;
  List.iter (fun (u, v) -> Graph.Builder.add_edge b ?capacity ?delay u v) pairs;
  Graph.Builder.build b

(* a cycle of [n >= 3] nodes *)
let ring n =
  if n < 3 then invalid_arg "Fixtures.ring: n < 3";
  let b = Graph.Builder.create () in
  let ids = named_nodes b "n" n in
  for i = 0 to n - 1 do
    edge b ids.(i) ids.((i + 1) mod n)
  done;
  Graph.Builder.build b

(* hub node 0 plus [n >= 1] edge leaves *)
let star n =
  if n < 1 then invalid_arg "Fixtures.star: n < 1";
  let b = Graph.Builder.create () in
  let hub = Graph.Builder.add_node b ~role:Node.Core "hub" in
  for i = 0 to n - 1 do
    let leaf =
      Graph.Builder.add_node b ~role:Node.Edge (Printf.sprintf "leaf%d" i)
    in
    edge b hub leaf
  done;
  Graph.Builder.build b

(* the complete graph on [n >= 2] nodes *)
let full_mesh n =
  if n < 2 then invalid_arg "Fixtures.full_mesh: n < 2";
  let b = Graph.Builder.create () in
  let ids = named_nodes b "n" n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edge b ids.(i) ids.(j)
    done
  done;
  Graph.Builder.build b

(* a 2-D lattice; node (r, c) has id [r * cols + c] *)
let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Fixtures.grid: empty dimension";
  let b = Graph.Builder.create () in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let got =
        Graph.Builder.add_node b ~role:Node.Core (Printf.sprintf "g%d_%d" r c)
      in
      assert (got = id r c)
    done
  done;
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edge b (id r c) (id r (c + 1));
      if r + 1 < rows then edge b (id r c) (id (r + 1) c)
    done
  done;
  Graph.Builder.build b

(* the complete binary tree of [2^(depth+1) - 1] nodes; node 0 is the
   root *)
let binary_tree depth =
  if depth < 0 then invalid_arg "Fixtures.binary_tree: depth < 0";
  let n = (1 lsl (depth + 1)) - 1 in
  let b = Graph.Builder.create () in
  let ids = named_nodes b "t" n in
  for i = 0 to n - 1 do
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    if l < n then edge b ids.(i) ids.(l);
    if r < n then edge b ids.(i) ids.(r)
  done;
  Graph.Builder.build b

(* G(n, p), possibly disconnected *)
let erdos_renyi ?(capacity = default_capacity) ~seed ~p n =
  if n < 1 then invalid_arg "Fixtures.erdos_renyi: n < 1";
  if p < 0. || p > 1. then invalid_arg "Fixtures.erdos_renyi: p outside [0,1]";
  let rng = Sim.Rng.create seed in
  let b = Graph.Builder.create () in
  let ids = named_nodes b "n" n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Sim.Rng.float rng 1. < p then
        Graph.Builder.add_edge b ~capacity ~delay:default_delay ids.(i) ids.(j)
    done
  done;
  Graph.Builder.build b
