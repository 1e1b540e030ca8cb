let default_capacity = 1e9
let default_delay = 1e-3

let line ?(capacity = default_capacity) ?(delay = default_delay) n =
  if n < 1 then invalid_arg "Builders.line: n < 1";
  let b = Graph.Builder.create () in
  let ids =
    Array.init n (fun i ->
        Graph.Builder.add_node b ~role:Node.Core (Printf.sprintf "n%d" i))
  in
  for i = 0 to n - 2 do
    Graph.Builder.add_edge b ~capacity ~delay ids.(i) ids.(i + 1)
  done;
  Graph.Builder.build b

let dumbbell ?(access_capacity = 1e9) ?(bottleneck_capacity = 1e8) n =
  if n < 1 then invalid_arg "Builders.dumbbell: n < 1";
  let b = Graph.Builder.create () in
  let left = Graph.Builder.add_node b ~role:Node.Core "left" in
  let right = Graph.Builder.add_node b ~role:Node.Core "right" in
  Graph.Builder.add_edge b ~capacity:bottleneck_capacity ~delay:default_delay
    left right;
  for i = 0 to n - 1 do
    let s =
      Graph.Builder.add_node b ~role:Node.Host (Printf.sprintf "src%d" i)
    in
    Graph.Builder.add_edge b ~capacity:access_capacity ~delay:default_delay s left
  done;
  for i = 0 to n - 1 do
    let d =
      Graph.Builder.add_node b ~role:Node.Host (Printf.sprintf "dst%d" i)
    in
    Graph.Builder.add_edge b ~capacity:access_capacity ~delay:default_delay right
      d
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
