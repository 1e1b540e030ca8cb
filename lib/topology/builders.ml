let default_capacity = 1e9
let default_delay = 1e-3

let named_nodes b prefix n role =
  Array.init n (fun i ->
      Graph.Builder.add_node b ~role (Printf.sprintf "%s%d" prefix i))

let line ?(capacity = default_capacity) ?(delay = default_delay) n =
  if n < 1 then invalid_arg "Builders.line: n < 1";
  let b = Graph.Builder.create () in
  let ids = named_nodes b "n" n Node.Core in
  for i = 0 to n - 2 do
    Graph.Builder.add_edge b ~capacity ~delay ids.(i) ids.(i + 1)
  done;
  Graph.Builder.build b

let ring ?(capacity = default_capacity) ?(delay = default_delay) n =
  if n < 3 then invalid_arg "Builders.ring: n < 3";
  let b = Graph.Builder.create () in
  let ids = named_nodes b "n" n Node.Core in
  for i = 0 to n - 1 do
    Graph.Builder.add_edge b ~capacity ~delay ids.(i) ids.((i + 1) mod n)
  done;
  Graph.Builder.build b

let star ?(capacity = default_capacity) ?(delay = default_delay) n =
  if n < 1 then invalid_arg "Builders.star: n < 1";
  let b = Graph.Builder.create () in
  let hub = Graph.Builder.add_node b ~role:Node.Core "hub" in
  for i = 0 to n - 1 do
    let leaf =
      Graph.Builder.add_node b ~role:Node.Edge (Printf.sprintf "leaf%d" i)
    in
    Graph.Builder.add_edge b ~capacity ~delay hub leaf
  done;
  Graph.Builder.build b

let full_mesh ?(capacity = default_capacity) ?(delay = default_delay) n =
  if n < 2 then invalid_arg "Builders.full_mesh: n < 2";
  let b = Graph.Builder.create () in
  let ids = named_nodes b "n" n Node.Core in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Graph.Builder.add_edge b ~capacity ~delay ids.(i) ids.(j)
    done
  done;
  Graph.Builder.build b

let grid ?(capacity = default_capacity) ?(delay = default_delay) rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Builders.grid: empty dimension";
  let b = Graph.Builder.create () in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let got =
        Graph.Builder.add_node b ~role:Node.Core
          (Printf.sprintf "g%d_%d" r c)
      in
      assert (got = id r c)
    done
  done;
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then
        Graph.Builder.add_edge b ~capacity ~delay (id r c) (id r (c + 1));
      if r + 1 < rows then
        Graph.Builder.add_edge b ~capacity ~delay (id r c) (id (r + 1) c)
    done
  done;
  Graph.Builder.build b

let binary_tree ?(capacity = default_capacity) ?(delay = default_delay) depth =
  if depth < 0 then invalid_arg "Builders.binary_tree: depth < 0";
  let n = (1 lsl (depth + 1)) - 1 in
  let b = Graph.Builder.create () in
  let ids = named_nodes b "t" n Node.Core in
  for i = 0 to n - 1 do
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    if l < n then Graph.Builder.add_edge b ~capacity ~delay ids.(i) ids.(l);
    if r < n then Graph.Builder.add_edge b ~capacity ~delay ids.(i) ids.(r)
  done;
  Graph.Builder.build b

let dumbbell ?(access_capacity = 1e9) ?(bottleneck_capacity = 1e8)
    ?(delay = default_delay) n =
  if n < 1 then invalid_arg "Builders.dumbbell: n < 1";
  let b = Graph.Builder.create () in
  let left = Graph.Builder.add_node b ~role:Node.Core "left" in
  let right = Graph.Builder.add_node b ~role:Node.Core "right" in
  Graph.Builder.add_edge b ~capacity:bottleneck_capacity ~delay left right;
  for i = 0 to n - 1 do
    let s =
      Graph.Builder.add_node b ~role:Node.Host (Printf.sprintf "src%d" i)
    in
    Graph.Builder.add_edge b ~capacity:access_capacity ~delay s left
  done;
  for i = 0 to n - 1 do
    let d =
      Graph.Builder.add_node b ~role:Node.Host (Printf.sprintf "dst%d" i)
    in
    Graph.Builder.add_edge b ~capacity:access_capacity ~delay right d
  done;
  Graph.Builder.build b

(* Paper Fig. 3: 1-2 is the 10 Mbps shared link, 2-4 the 2 Mbps
   bottleneck, and 1-3-4 the 5 Mbps detour branch able to absorb the
   3 Mbps overflow. *)
let fig3 () =
  let b = Graph.Builder.create () in
  let n1 = Graph.Builder.add_node b "1" in
  let n2 = Graph.Builder.add_node b "2" in
  let n3 = Graph.Builder.add_node b "3" in
  let n4 = Graph.Builder.add_node b "4" in
  Graph.Builder.add_edge b ~capacity:10e6 ~delay:1e-3 n1 n2;
  Graph.Builder.add_edge b ~capacity:2e6 ~delay:1e-3 n2 n4;
  Graph.Builder.add_edge b ~capacity:5e6 ~delay:1e-3 n1 n3;
  Graph.Builder.add_edge b ~capacity:5e6 ~delay:1e-3 n3 n4;
  (* node 2 can reach node 3 so node 2 can detour 2->3->4 *)
  Graph.Builder.add_edge b ~capacity:5e6 ~delay:1e-3 n2 n3;
  Graph.Builder.build b

let erdos_renyi ?(capacity = default_capacity) ?(delay = default_delay) ~seed
    ~p n =
  if n < 1 then invalid_arg "Builders.erdos_renyi: n < 1";
  if p < 0. || p > 1. then invalid_arg "Builders.erdos_renyi: p outside [0,1]";
  let rng = Sim.Rng.create seed in
  let b = Graph.Builder.create () in
  let ids = named_nodes b "n" n Node.Core in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Sim.Rng.float rng 1. < p then
        Graph.Builder.add_edge b ~capacity ~delay ids.(i) ids.(j)
    done
  done;
  Graph.Builder.build b

let waxman ?capacity ?delay ~seed ~alpha ~beta n =
  if n < 1 then invalid_arg "Builders.waxman: n < 1";
  if alpha <= 0. || alpha > 1. then invalid_arg "Builders.waxman: alpha";
  if beta <= 0. then invalid_arg "Builders.waxman: beta";
  let rng = Sim.Rng.create seed in
  let xs = Array.init n (fun _ -> Sim.Rng.float rng 1.) in
  let ys = Array.init n (fun _ -> Sim.Rng.float rng 1.) in
  let b = Graph.Builder.create () in
  let ids = named_nodes b "w" n Node.Core in
  let diag = sqrt 2. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
      let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
      let prob = alpha *. exp (-.dist /. (beta *. diag)) in
      if Sim.Rng.float rng 1. < prob then begin
        let cap = match capacity with Some c -> c | None -> default_capacity in
        let dly =
          match delay with
          | Some d -> d
          | None -> 1e-3 +. (dist *. 5e-3) (* ~speed-of-light flavour *)
        in
        Graph.Builder.add_edge b ~capacity:cap ~delay:dly ids.(i) ids.(j)
      end
    done
  done;
  Graph.Builder.build b
