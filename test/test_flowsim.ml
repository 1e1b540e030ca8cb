(* Tests for the flow-level simulator: allocation (max-min and INRP),
   routing strategies, workload generation, snapshots and the DES. *)

open Topology
module A = Flowsim.Allocation
module R = Flowsim.Routing
module W = Flowsim.Workload

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

let mbps x = x *. 1e6

let path_of g ns = Path.of_nodes_exn g ns

(* ------------------------------------------------------------------ *)
(* max_min *)

let test_max_min_single_link () =
  let g = Graph.of_edges ~capacity:(mbps 10.) 2 [ (0, 1) ] in
  let p = path_of g [ 0; 1 ] in
  let rates = A.max_min g [| (p, infinity); (p, infinity); (p, infinity) |] in
  Array.iter (fun r -> check_close "equal thirds" 1. (mbps 10. /. 3.) r) rates

let test_max_min_demand_cap () =
  let g = Graph.of_edges ~capacity:(mbps 10.) 2 [ (0, 1) ] in
  let p = path_of g [ 0; 1 ] in
  let rates = A.max_min g [| (p, mbps 2.); (p, infinity) |] in
  check_close "capped flow" 1. (mbps 2.) rates.(0);
  check_close "leftover to the elastic flow" 1. (mbps 8.) rates.(1)

let test_max_min_fig3_e2e () =
  (* the paper's left-hand Fig. 3 numbers: 2 and 8 Mbps *)
  let g = Builders.fig3 () in
  let a = path_of g [ 0; 1; 3 ] in
  let b = path_of g [ 0; 1 ] in
  let rates = A.max_min g [| (a, infinity); (b, infinity) |] in
  check_close "flow A limited by bottleneck" 1. (mbps 2.) rates.(0);
  check_close "flow B grabs the rest" 1. (mbps 8.) rates.(1);
  let jain = Metrics.Fairness.jain [| rates.(0); rates.(1) |] in
  check_close "paper's fairness index" 0.01 0.735 jain

let test_max_min_parking_lot () =
  (* classic parking lot: long flow crosses two links shared with one
     short flow each: all get half of each link *)
  let g = Graph.of_edges ~capacity:(mbps 10.) 3 [ (0, 1); (1, 2) ] in
  let long = path_of g [ 0; 1; 2 ] in
  let s1 = path_of g [ 0; 1 ] in
  let s2 = path_of g [ 1; 2 ] in
  let rates = A.max_min g [| (long, infinity); (s1, infinity); (s2, infinity) |] in
  check_close "long" 1. (mbps 5.) rates.(0);
  check_close "short 1" 1. (mbps 5.) rates.(1);
  check_close "short 2" 1. (mbps 5.) rates.(2)

let test_max_min_empty_and_zero_hop () =
  let g = Graph.of_edges 2 [ (0, 1) ] in
  Alcotest.(check int) "empty" 0 (Array.length (A.max_min g [||]));
  let z = Path.singleton 0 in
  let rates = A.max_min g [| (z, 5.); (z, infinity) |] in
  check_close "zero-hop takes demand" 1e-9 5. rates.(0);
  check_close "unbounded zero-hop gets zero" 1e-9 0. rates.(1)

let test_max_min_conservation () =
  (* no link carries more than its capacity *)
  let g = Isp_zoo.graph Isp_zoo.Vsnl in
  let router = R.create g R.sp in
  let pairs = [ (0, 5); (1, 7); (2, 9); (3, 10); (0, 10); (4, 8) ] in
  let paths =
    List.filter_map
      (fun (s, d) -> R.route router ~flow_id:0 s d)
      pairs
  in
  let demands = Array.of_list (List.map (fun p -> (p, infinity)) paths) in
  let rates = A.max_min g demands in
  let carried = Array.make (Graph.link_count g) 0. in
  Array.iteri
    (fun i (p, _) ->
      List.iter
        (fun (l : Link.t) -> carried.(l.Link.id) <- carried.(l.Link.id) +. rates.(i))
        p.Path.links)
    demands;
  Array.iteri
    (fun lid c ->
      let cap = (Graph.link g lid).Link.capacity in
      if c > cap +. 1e-6 then
        Alcotest.failf "link %d overbooked: %.3g > %.3g" lid c cap)
    carried

(* ------------------------------------------------------------------ *)
(* INRP allocation *)

let fig3_pairs = [ (0, 3); (0, 1) ]

let run_fig3 strategy =
  Flowsim.Simulator.run_static (Builders.fig3 ()) ~strategy fig3_pairs

let test_inrp_fig3 () =
  (* the paper's right-hand Fig. 3 numbers: 5 and 5 Mbps, Jain = 1 *)
  let rates = run_fig3 (R.Inrp A.fig3_inrp) in
  check_close "flow A detours to 5" 1000. (mbps 5.) rates.(0);
  check_close "flow B equal share 5" 1000. (mbps 5.) rates.(1)

let test_inrp_no_detour_matches_bottleneck () =
  (* without detours INRP degenerates to the bottleneck rate *)
  let g = Graph.of_edges ~capacity:(mbps 10.) 3 [ (0, 1); (1, 2) ] in
  let table = Detour.Table.create g in
  let p = path_of g [ 0; 1; 2 ] in
  let res =
    A.inrp
      ~options:{ A.default_inrp with max_detour = 0 }
      ~detours:(Detour.Table.find table) g
      [| (p, infinity) |]
  in
  check_close "full line rate" 1000. (mbps 10.) res.A.delivered.(0)

let test_inrp_delivered_le_pushed () =
  let g = Isp_zoo.graph Isp_zoo.Vsnl in
  let table = Detour.Table.create g in
  let router = R.create g R.sp in
  let paths =
    List.filter_map (fun (s, d) -> R.route router ~flow_id:0 s d)
      [ (0, 6); (1, 8); (2, 10); (5, 9) ]
  in
  let demands = Array.of_list (List.map (fun p -> (p, 1e10)) paths) in
  let res = A.inrp ~detours:(Detour.Table.find table) g demands in
  Array.iteri
    (fun i d ->
      if d > res.A.pushed.(i) +. 1e-6 then
        Alcotest.failf "flow %d delivered %.3g > pushed %.3g" i d
          res.A.pushed.(i))
    res.A.delivered

let test_inrp_capacity_conserved () =
  let g = Isp_zoo.graph Isp_zoo.Vsnl in
  let table = Detour.Table.create g in
  let router = R.create g R.sp in
  let paths =
    List.filter_map (fun (s, d) -> R.route router ~flow_id:0 s d)
      [ (0, 6); (1, 8); (2, 10); (5, 9); (3, 7); (0, 9) ]
  in
  let demands = Array.of_list (List.map (fun p -> (p, infinity)) paths) in
  let res = A.inrp ~detours:(Detour.Table.find table) g demands in
  Array.iteri
    (fun lid c ->
      let cap = (Graph.link g lid).Link.capacity in
      if c > cap +. 1e-6 then Alcotest.failf "link %d overbooked" lid;
      if c < -.1e-6 then Alcotest.failf "link %d negative load" lid)
    res.A.link_carried

let test_inrp_effective_hops_sane () =
  let g = Builders.fig3 () in
  let table = Detour.Table.create g in
  let a = path_of g [ 0; 1; 3 ] in
  let b = path_of g [ 0; 1 ] in
  let res =
    A.inrp ~options:A.fig3_inrp ~detours:(Detour.Table.find table) g
      [| (a, infinity); (b, infinity) |]
  in
  (* flow A: 2 Mbps over 2 hops, 3 Mbps over 3 hops -> 2.6 mean hops *)
  check_close "rate-weighted hops" 0.05 2.6 res.A.effective_hops.(0);
  check_close "flow B stays on its link" 0.01 1. res.A.effective_hops.(1);
  Alcotest.(check bool) "flow A traffic detoured" true
    (res.A.detoured_fraction > 0.2)

(* ------------------------------------------------------------------ *)
(* Routing *)

let test_routing_sp_deterministic () =
  let g = Isp_zoo.graph Isp_zoo.Vsnl in
  let r1 = R.create g R.sp and r2 = R.create g R.sp in
  for flow = 0 to 20 do
    let src = flow mod Graph.node_count g in
    let dst = (flow * 3 + 1) mod Graph.node_count g in
    if src <> dst then begin
      let a = R.route r1 ~flow_id:flow src dst in
      let b = R.route r2 ~flow_id:flow src dst in
      match a, b with
      | Some pa, Some pb ->
        Alcotest.(check bool) "same path" true (Path.equal pa pb)
      | None, None -> ()
      | _ -> Alcotest.fail "inconsistent reachability"
    end
  done

let test_routing_ecmp_spreads () =
  let g = Builders.grid 3 3 in
  let r = R.create g R.ecmp in
  let used = Hashtbl.create 4 in
  for flow = 0 to 63 do
    match R.route r ~flow_id:flow 0 8 with
    | Some p -> Hashtbl.replace used p.Path.nodes ()
    | None -> Alcotest.fail "grid reachable"
  done;
  Alcotest.(check bool) "uses several equal-cost paths" true
    (Hashtbl.length used >= 2)

let test_routing_detours_only_inrp () =
  let g = Builders.fig3 () in
  let l = Option.get (Graph.find_link g 1 3) in
  let sp = R.create g R.sp in
  Alcotest.(check int) "sp: none" 0 (List.length (R.detours sp l));
  let inrp = R.create g R.inrp in
  Alcotest.(check bool) "inrp: some" true (List.length (R.detours inrp l) > 0)

let test_routing_names () =
  Alcotest.(check string) "sp" "SP" (R.name R.sp);
  Alcotest.(check string) "ecmp" "ECMP" (R.name R.ecmp);
  Alcotest.(check string) "inrp" "INRP" (R.name R.inrp);
  Alcotest.(check bool) "is_inrp" true (R.is_inrp R.inrp);
  Alcotest.(check bool) "sp not inrp" false (R.is_inrp R.sp)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_distinct_pairs () =
  let g = Builders.full_mesh 5 in
  let wl = W.create ~arrival_rate:10. ~size:(W.Fixed 100.) ~seed:3L g in
  for id = 0 to 200 do
    let src, dst, size = W.draw_flow wl ~time:0. ~id in
    if src = dst then Alcotest.fail "src = dst";
    check_close "fixed size" 1e-9 100. size
  done

let test_workload_role_filter () =
  let g = Builders.dumbbell 3 in
  (* dumbbell hosts are nodes 2..7 *)
  let wl =
    W.create ~endpoints:(W.Role_pairs [ Node.Host ]) ~arrival_rate:1.
      ~size:(W.Fixed 1.) ~seed:1L g
  in
  for id = 0 to 100 do
    let src, dst, _ = W.draw_flow wl ~time:0. ~id in
    if src < 2 || dst < 2 then Alcotest.fail "router chosen as endpoint"
  done

let test_workload_sizes () =
  let g = Builders.full_mesh 3 in
  let wl =
    W.create ~arrival_rate:5. ~size:(W.Exponential 1e6) ~seed:9L g
  in
  let acc = ref 0. in
  let n = 20_000 in
  for id = 0 to n - 1 do
    let _, _, size = W.draw_flow wl ~time:0. ~id in
    if size <= 0. then Alcotest.fail "non-positive size";
    acc := !acc +. size
  done;
  check_close "mean size" 5e4 1e6 (!acc /. float_of_int n);
  check_close "offered load" 1e-3 5e6 (W.offered_load wl)

let test_workload_interarrivals () =
  let g = Builders.full_mesh 3 in
  let wl = W.create ~arrival_rate:100. ~size:(W.Fixed 1.) ~seed:5L g in
  let acc = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. W.next_interarrival wl
  done;
  check_close "mean gap 10ms" 5e-4 0.01 (!acc /. float_of_int n)

let test_workload_pareto_shape () =
  let g = Builders.full_mesh 3 in
  let wl =
    W.create ~arrival_rate:1. ~size:(W.Pareto { shape = 0.5; mean = 1e6 })
      ~seed:1L g
  in
  match W.draw_flow wl ~time:0. ~id:0 with
  | _ -> Alcotest.fail "Pareto shape <= 1 accepted"
  | exception Invalid_argument _ -> ()

let test_workload_role_fallback () =
  (* fewer than two nodes with the requested role: fall back to any *)
  let g = Builders.full_mesh 3 in
  let wl =
    W.create ~endpoints:(W.Role_pairs [ Node.Host ]) ~arrival_rate:1.
      ~size:(W.Fixed 1.) ~seed:1L g
  in
  let src, dst, _ = W.draw_flow wl ~time:0. ~id:0 in
  Alcotest.(check bool) "still draws a pair" true (src <> dst)

let test_workload_validation () =
  let g = Builders.full_mesh 3 in
  Alcotest.check_raises "rate" (Invalid_argument "Workload.create: arrival_rate <= 0")
    (fun () -> ignore (W.create ~arrival_rate:0. ~size:(W.Fixed 1.) ~seed:1L g));
  let tiny = Graph.of_edges 1 [] in
  Alcotest.check_raises "nodes" (Invalid_argument "Workload.create: need at least two nodes")
    (fun () -> ignore (W.create ~arrival_rate:1. ~size:(W.Fixed 1.) ~seed:1L tiny))

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let test_snapshot_deterministic () =
  let g = Isp_zoo.graph Isp_zoo.Vsnl in
  let a = Flowsim.Snapshot.run ~strategy:R.sp ~demand:1e9 ~nflows:20 ~seed:4L g in
  let b = Flowsim.Snapshot.run ~strategy:R.sp ~demand:1e9 ~nflows:20 ~seed:4L g in
  check_close "same throughput" 1e-12 a.Flowsim.Snapshot.throughput
    b.Flowsim.Snapshot.throughput

let test_snapshot_throughput_bounds () =
  let g = Isp_zoo.graph Isp_zoo.Vsnl in
  List.iter
    (fun strategy ->
      let r =
        Flowsim.Snapshot.run ~strategy ~demand:2e9 ~nflows:30 ~seed:2L g
      in
      let t = r.Flowsim.Snapshot.throughput in
      if t < 0. || t > 1. +. 1e-9 then
        Alcotest.failf "%s throughput %.3f outside [0,1]"
          r.Flowsim.Snapshot.strategy t)
    [ R.sp; R.ecmp; R.inrp ]

let test_snapshot_fig4a_ordering () =
  (* the paper's Fig. 4a shape: INRP >= ECMP >= SP (allowing noise) *)
  let eps = W.Role_pairs [ Node.Core; Node.Aggregation ] in
  let g = Isp_zoo.graph Isp_zoo.Telstra in
  let n = 2 * Graph.node_count g in
  let seeds = [ 1L; 2L ] in
  let thr strategy =
    (Flowsim.Snapshot.ensemble ~endpoints:eps ~strategy ~demand:6e9 ~nflows:n
       ~seeds g).Flowsim.Snapshot.throughput
  in
  let sp = thr R.sp and ecmp = thr R.ecmp and inrp = thr R.inrp in
  Alcotest.(check bool)
    (Printf.sprintf "INRP (%.3f) > SP (%.3f)" inrp sp)
    true (inrp > sp);
  Alcotest.(check bool)
    (Printf.sprintf "ECMP (%.3f) >= SP (%.3f)" ecmp sp)
    true (ecmp >= sp -. 0.005)

let test_snapshot_stretch_bounds () =
  let eps = W.Role_pairs [ Node.Core; Node.Aggregation ] in
  let g = Isp_zoo.graph Isp_zoo.Exodus in
  let r =
    Flowsim.Snapshot.run ~endpoints:eps ~strategy:R.inrp ~demand:6e9
      ~nflows:(2 * Graph.node_count g) ~seed:1L g
  in
  Alcotest.(check bool) "mean stretch in the Fig. 4b band" true
    (r.Flowsim.Snapshot.mean_stretch >= 1.
    && r.Flowsim.Snapshot.mean_stretch < 1.4);
  let arr = Sim.Stats.Samples.to_sorted_array r.Flowsim.Snapshot.stretch_samples in
  Array.iter
    (fun s -> if s < 1. -. 1e-9 then Alcotest.failf "stretch %.3f < 1" s)
    arr

let test_snapshot_no_detour_matches_sp () =
  (* with detours disabled, the INRP allocator's throughput must land on
     the SP baseline (consistency between the two allocators) *)
  let eps = W.Role_pairs [ Node.Core; Node.Aggregation ] in
  let g = Isp_zoo.graph Isp_zoo.Vsnl in
  let run strategy =
    (Flowsim.Snapshot.run ~endpoints:eps ~strategy ~demand:6e9 ~nflows:20
       ~seed:3L g).Flowsim.Snapshot.throughput
  in
  let sp = run R.sp in
  let inrp0 = run (R.Inrp { A.default_inrp with max_detour = 0 }) in
  check_close
    (Printf.sprintf "no-detour INRP %.3f ~ SP %.3f" inrp0 sp)
    0.03 sp inrp0

let test_snapshot_validation () =
  let g = Builders.fig3 () in
  Alcotest.check_raises "nflows" (Invalid_argument "Snapshot.run: nflows <= 0")
    (fun () -> ignore (Flowsim.Snapshot.run ~strategy:R.sp ~nflows:0 ~seed:1L g));
  Alcotest.check_raises "seeds" (Invalid_argument "Snapshot.ensemble: no seeds")
    (fun () ->
      ignore (Flowsim.Snapshot.ensemble ~strategy:R.sp ~nflows:2 ~seeds:[] g))

let fig4_endpoints = W.Role_pairs [ Node.Core; Node.Aggregation ]

let test_snapshot_ensemble_is_fold () =
  (* one routing state shared across seeds must not move a bit: the
     ensemble equals the seed-wise fold of independent runs *)
  let g = Isp_zoo.graph Isp_zoo.Telstra in
  let nflows = 2 * Graph.node_count g in
  let seeds = [ 1L; 2L; 3L ] in
  let bits = Int64.bits_of_float in
  List.iter
    (fun strategy ->
      let e =
        Flowsim.Snapshot.ensemble ~endpoints:fig4_endpoints ~strategy
          ~demand:6e9 ~nflows ~seeds g
      in
      let runs =
        List.map
          (fun seed ->
            Flowsim.Snapshot.run ~endpoints:fig4_endpoints ~strategy
              ~demand:6e9 ~nflows ~seed g)
          seeds
      in
      let mean f =
        List.fold_left (fun acc r -> acc +. f r) 0. runs
        /. float_of_int (List.length runs)
      in
      let name = R.name strategy in
      Alcotest.(check int64) (name ^ " throughput")
        (bits (mean (fun r -> r.Flowsim.Snapshot.throughput)))
        (bits e.Flowsim.Snapshot.throughput);
      Alcotest.(check int64) (name ^ " detoured fraction")
        (bits (mean (fun r -> r.Flowsim.Snapshot.detoured_fraction)))
        (bits e.Flowsim.Snapshot.detoured_fraction);
      let sorted r =
        Sim.Stats.Samples.to_sorted_array r.Flowsim.Snapshot.stretch_samples
      in
      let pooled = Array.concat (List.map sorted runs) in
      Array.sort Float.compare pooled;
      Alcotest.(check (array int64)) (name ^ " stretch samples")
        (Array.map bits pooled) (Array.map bits (sorted e)))
    [ R.sp; R.ecmp; R.inrp ]

(* Two disconnected diamonds, each with two equal-cost paths between
   its far corners and one slow link, so which path an ECMP flow hashes
   onto moves the max-min rates. *)
let two_diamonds () =
  let b = Graph.Builder.create () in
  let n = Array.init 8 (fun i -> Graph.Builder.add_node b (string_of_int i)) in
  List.iter
    (fun base ->
      let edge ?(capacity = 1e7) u v =
        Graph.Builder.add_edge b ~capacity n.(base + u) n.(base + v)
      in
      edge 0 1;
      edge 0 2;
      edge ~capacity:1e6 1 3;
      edge 2 3)
    [ 0; 4 ];
  Graph.Builder.build b

let test_snapshot_ecmp_ids_skip_unroutable () =
  (* an ECMP flow hashes on its index among the routed pairs, not among
     all drawn pairs: the goodput matches an independent replay of that
     rule and differs from the all-pairs one *)
  let g = two_diamonds () in
  let nflows = 40 and seed = 5L and demand = 1e7 in
  let r =
    Flowsim.Snapshot.run ~strategy:(R.Ecmp 8) ~demand ~nflows ~seed g
  in
  let wl = W.create ~arrival_rate:1. ~size:(W.Fixed 1.) ~seed g in
  let pairs =
    List.init nflows (fun id ->
        let src, dst, _ = W.draw_flow wl ~time:0. ~id in
        (src, dst))
  in
  let goodput flow_id_of =
    let routed = ref 0 in
    let paths =
      List.filter_map Fun.id
        (List.mapi
           (fun i (src, dst) ->
             match Ecmp.equal_cost_paths ~limit:8 g src dst with
             | [] -> None
             | ps ->
               let k = !routed in
               incr routed;
               Ecmp.pick ps ~flow_id:(flow_id_of i k))
           pairs)
    in
    let demands = Array.of_list (List.map (fun p -> (p, demand)) paths) in
    (List.length paths, Array.fold_left ( +. ) 0. (A.max_min g demands))
  in
  let routed, by_routed = goodput (fun _ k -> k) in
  let _, by_drawn = goodput (fun i _ -> i) in
  Alcotest.(check bool) "some pairs unroutable" true (routed < nflows);
  Alcotest.(check int) "routed flows" routed r.Flowsim.Snapshot.flows;
  Alcotest.(check bool) "the indexing rule matters here" true
    (by_routed <> by_drawn);
  Alcotest.(check int64) "goodput by routed index"
    (Int64.bits_of_float by_routed)
    (Int64.bits_of_float r.Flowsim.Snapshot.goodput)

(* ------------------------------------------------------------------ *)
(* DES simulator *)

let test_des_conservation () =
  let g = Builders.dumbbell ~bottleneck_capacity:1e8 4 in
  let cfg =
    Flowsim.Simulator.config ~strategy:R.sp ~arrival_rate:20.
      ~size:(W.Exponential 1e6)
      ~endpoints:(W.Role_pairs [ Node.Host ]) ~warmup:0.5 ~duration:3.
      ~seed:11L ()
  in
  let r = Flowsim.Simulator.run g cfg in
  Alcotest.(check bool) "delivered <= offered (plus backlog drain)" true
    (r.Flowsim.Results.delivered_bits
    <= r.Flowsim.Results.offered_bits +. 3. *. 1e8);
  Alcotest.(check bool) "some flows completed" true
    (r.Flowsim.Results.completions > 0);
  Alcotest.(check bool) "throughput positive" true
    (r.Flowsim.Results.throughput > 0.)

let test_des_deterministic () =
  let g = Builders.dumbbell 3 in
  let cfg =
    Flowsim.Simulator.config ~strategy:R.sp ~arrival_rate:10.
      ~endpoints:(W.Role_pairs [ Node.Host ]) ~warmup:0.2 ~duration:1.
      ~seed:21L ()
  in
  let a = Flowsim.Simulator.run g cfg in
  let b = Flowsim.Simulator.run g cfg in
  Alcotest.(check int) "same completions" a.Flowsim.Results.completions
    b.Flowsim.Results.completions;
  check_close "same delivered" 1e-6 a.Flowsim.Results.delivered_bits
    b.Flowsim.Results.delivered_bits

let test_des_underload_completes_everything () =
  (* far below capacity every flow should complete quickly: throughput ~ 1 *)
  let g = Builders.dumbbell ~bottleneck_capacity:1e9 2 in
  let cfg =
    Flowsim.Simulator.config ~strategy:R.sp ~arrival_rate:5.
      ~size:(W.Fixed 1e5)
      ~endpoints:(W.Role_pairs [ Node.Host ]) ~warmup:1. ~duration:5.
      ~seed:31L ()
  in
  let r = Flowsim.Simulator.run g cfg in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.3f ~ 1" r.Flowsim.Results.throughput)
    true
    (r.Flowsim.Results.throughput > 0.95);
  Alcotest.(check bool) "fct is positive and small" true
    (r.Flowsim.Results.mean_fct > 0. && r.Flowsim.Results.mean_fct < 0.1)

let test_des_inrp_runs () =
  let g = Builders.fig3 () in
  let cfg =
    Flowsim.Simulator.config ~strategy:R.inrp ~arrival_rate:20.
      ~size:(W.Fixed 1e5) ~warmup:0.5 ~duration:2. ~seed:41L ()
  in
  let r = Flowsim.Simulator.run g cfg in
  Alcotest.(check string) "labelled" "INRP" r.Flowsim.Results.strategy;
  Alcotest.(check bool) "completes flows" true (r.Flowsim.Results.completions > 0)

let test_des_validation () =
  let g = Builders.fig3 () in
  Alcotest.check_raises "duration"
    (Invalid_argument "Simulator.run: bad warmup/duration") (fun () ->
      ignore
        (Flowsim.Simulator.run g
           (Flowsim.Simulator.config ~strategy:R.sp ~arrival_rate:1.
              ~duration:0. ())))

let test_run_static_unroutable () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  match Flowsim.Simulator.run_static g ~strategy:R.sp [ (0, 3) ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Flow unit tests *)

let test_flow_lifecycle () =
  let g = Builders.line 3 in
  let p = path_of g [ 0; 1; 2 ] in
  let f =
    Flowsim.Flow.make ~id:1 ~src:0 ~dst:2 ~size:100. ~arrival:1.
      ~shortest_hops:2 ~path:p
  in
  Alcotest.(check bool) "fresh" false (Flowsim.Flow.is_complete f);
  f.Flowsim.Flow.rate <- 50.;
  Flowsim.Flow.advance f ~dt:1.;
  check_close "half drained" 1e-9 50. f.Flowsim.Flow.remaining;
  Flowsim.Flow.advance f ~dt:10.;
  Alcotest.(check bool) "complete" true (Flowsim.Flow.is_complete f);
  check_close "no overdraw" 1e-9 100. f.Flowsim.Flow.delivered_bits;
  check_close "stretch 1 on shortest" 1e-9 1. (Flowsim.Flow.stretch f);
  f.Flowsim.Flow.completed_at <- Some 4.;
  Alcotest.(check (option (float 1e-9))) "fct" (Some 3.) (Flowsim.Flow.fct f)

let test_flow_validation () =
  let g = Builders.line 2 in
  let p = path_of g [ 0; 1 ] in
  Alcotest.check_raises "size" (Invalid_argument "Flow.make: size <= 0")
    (fun () ->
      ignore
        (Flowsim.Flow.make ~id:0 ~src:0 ~dst:1 ~size:0. ~arrival:0.
           ~shortest_hops:1 ~path:p))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_max_min_within_capacity =
  QCheck.Test.make ~name:"max-min never overbooks a link" ~count:50
    (QCheck.make QCheck.Gen.(pair (int_range 5 15) (int_range 0 1000)))
    (fun (n, seed) ->
      let g =
        Builders.erdos_renyi ~capacity:1e6 ~seed:(Int64.of_int seed) ~p:0.4 n
      in
      let router = R.create g R.sp in
      let rng = Sim.Rng.create (Int64.of_int (seed + 1)) in
      let paths = ref [] in
      for _ = 1 to 10 do
        let s = Sim.Rng.int rng n and d = Sim.Rng.int rng n in
        if s <> d then
          match R.route router ~flow_id:0 s d with
          | Some p -> paths := p :: !paths
          | None -> ()
      done;
      let demands = Array.of_list (List.map (fun p -> (p, infinity)) !paths) in
      let rates = A.max_min g demands in
      let carried = Array.make (Graph.link_count g) 0. in
      Array.iteri
        (fun i (p, _) ->
          List.iter
            (fun (l : Link.t) ->
              carried.(l.Link.id) <- carried.(l.Link.id) +. rates.(i))
            p.Path.links)
        demands;
      Array.for_all2
        (fun c (l : Link.t) -> c <= l.Link.capacity +. 1.)
        carried
        (Array.of_list (Graph.links g)))

let prop_inrp_no_overbooking =
  QCheck.Test.make ~name:"inrp never overbooks a link" ~count:30
    (QCheck.make QCheck.Gen.(pair (int_range 5 12) (int_range 0 1000)))
    (fun (n, seed) ->
      let g =
        Builders.erdos_renyi ~capacity:1e6 ~seed:(Int64.of_int seed) ~p:0.4 n
      in
      let router = R.create g R.inrp in
      let table = Detour.Table.create g in
      let rng = Sim.Rng.create (Int64.of_int (seed + 7)) in
      let paths = ref [] in
      for _ = 1 to 8 do
        let s = Sim.Rng.int rng n and d = Sim.Rng.int rng n in
        if s <> d then
          match R.route router ~flow_id:0 s d with
          | Some p -> paths := p :: !paths
          | None -> ()
      done;
      match !paths with
      | [] -> true
      | ps ->
        let demands = Array.of_list (List.map (fun p -> (p, infinity)) ps) in
        let res = A.inrp ~detours:(Detour.Table.find table) g demands in
        Array.for_all2
          (fun c (l : Link.t) -> c <= l.Link.capacity +. 1. && c >= -1.)
          res.A.link_carried
          (Array.of_list (Graph.links g)))

(* The greedy detour pass serves each flow in [rounds] quanta of
   q_f = demand_f / rounds.  Enabling detours can strand at most one
   quantum per link a parcel crosses, and a detoured parcel crosses at
   most [hops_f + d] links where [d] is the extra length of the longest
   admissible detour (its intermediate count: max(max_detour, 2) when
   [allow_further], else max_detour).  So the aggregate delivered rate
   can drop by at most sum_f q_f * (hops_f + d) — a bound derived from
   the scenario itself rather than a hand-widened constant.  An
   exhaustive sweep of this generator's domain (n in 5..12, seed in
   0..500, 3967 routable scenarios) peaks at 0.67 of the bound, at
   n=5 seed=356 — pinned below as a regression. *)
let detour_deficit ~n ~seed =
  let capacity = 1e6 in
  let g =
    Builders.erdos_renyi ~capacity ~seed:(Int64.of_int seed) ~p:0.4 n
  in
  let router = R.create g R.sp in
  let table = Detour.Table.create g in
  let rng = Sim.Rng.create (Int64.of_int (seed + 3)) in
  let paths = ref [] in
  for _ = 1 to 8 do
    let s = Sim.Rng.int rng n and d = Sim.Rng.int rng n in
    if s <> d then
      match R.route router ~flow_id:0 s d with
      | Some p -> paths := p :: !paths
      | None -> ()
  done;
  match !paths with
  | [] -> None
  | ps ->
    let demands = Array.of_list (List.map (fun p -> (p, capacity /. 2.)) ps) in
    let total options =
      let res =
        A.inrp ~options ~detours:(Detour.Table.find table) g demands
      in
      Array.fold_left ( +. ) 0. res.A.delivered
    in
    let opts = A.default_inrp in
    let with_detour = total opts in
    let without = total { opts with A.max_detour = 0 } in
    let detour_extra =
      if opts.A.allow_further then max opts.A.max_detour 2
      else opts.A.max_detour
    in
    let bound =
      Array.fold_left
        (fun acc (p, d) ->
          acc
          +. (d /. float_of_int A.rounds)
             *. float_of_int (Path.hops p + detour_extra))
        0. demands
    in
    Some (without -. with_detour, bound)

let prop_inrp_beats_or_matches_no_detour =
  QCheck.Test.make
    ~name:"detours never reduce aggregate delivered rate" ~count:25
    (QCheck.make QCheck.Gen.(pair (int_range 5 12) (int_range 0 500)))
    (fun (n, seed) ->
      match detour_deficit ~n ~seed with
      | None -> true
      | Some (deficit, bound) -> deficit <= bound)

let test_inrp_detour_deficit_worst_case () =
  (* worst quantisation deficit over the property's whole domain *)
  match detour_deficit ~n:5 ~seed:356 with
  | None -> Alcotest.fail "worst-case scenario became unroutable"
  | Some (deficit, bound) ->
    check_close "deficit is the known worst" 1. 2e5 deficit;
    Alcotest.(check bool)
      (Printf.sprintf "deficit %.0f within derived bound %.0f" deficit bound)
      true
      (deficit <= bound)

(* Allocation gate: minor words per INRP allocation on the Telstra
   seed-1 Fig. 4a snapshot (226 routed flows), with the routing
   state's detour table already filled by a first call, as in every
   seed after the first of an ensemble.  The allocator walks link-id
   arrays with the parcel in float locals, so what is left is the
   per-call arrays: paths, the four passes' vectors and the detours
   resolved for overflowing links.  Bit-deterministic at fixed inputs;
   the figure is frozen with 1.25x headroom. *)
let test_inrp_alloc_gate () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let g = Isp_zoo.graph Isp_zoo.Telstra in
    let router = R.create g R.inrp in
    let wl =
      W.create ~endpoints:fig4_endpoints ~arrival_rate:1. ~size:(W.Fixed 1.)
        ~seed:1L g
    in
    let demands =
      Array.of_list
        (List.filter_map
           (fun id ->
             let src, dst, _ = W.draw_flow wl ~time:0. ~id in
             Option.map (fun p -> (p, 6e9)) (R.route router ~flow_id:id src dst))
           (List.init (2 * Graph.node_count g) Fun.id))
    in
    let detours = R.detours router in
    ignore (A.inrp ~detours g demands);
    let before = Gc.minor_words () in
    ignore (A.inrp ~detours g demands);
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "flows" 226 (Array.length demands);
    let frozen = 34324. in
    if words > 1.25 *. frozen then
      Alcotest.failf "%g minor words per inrp call, frozen %g, bound %g" words
        frozen (1.25 *. frozen)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "flowsim"
    [
      ( "max_min",
        [
          Alcotest.test_case "single link equal shares" `Quick test_max_min_single_link;
          Alcotest.test_case "demand cap" `Quick test_max_min_demand_cap;
          Alcotest.test_case "fig3 e2e numbers" `Quick test_max_min_fig3_e2e;
          Alcotest.test_case "parking lot" `Quick test_max_min_parking_lot;
          Alcotest.test_case "empty and zero-hop" `Quick test_max_min_empty_and_zero_hop;
          Alcotest.test_case "conservation" `Quick test_max_min_conservation;
        ] );
      ( "inrp",
        [
          Alcotest.test_case "fig3 INRPP numbers" `Quick test_inrp_fig3;
          Alcotest.test_case "no detour = bottleneck" `Quick test_inrp_no_detour_matches_bottleneck;
          Alcotest.test_case "delivered <= pushed" `Quick test_inrp_delivered_le_pushed;
          Alcotest.test_case "capacity conserved" `Quick test_inrp_capacity_conserved;
          Alcotest.test_case "effective hops" `Quick test_inrp_effective_hops_sane;
          Alcotest.test_case "detour deficit worst case" `Quick
            test_inrp_detour_deficit_worst_case;
        ] );
      ( "routing",
        [
          Alcotest.test_case "sp deterministic" `Quick test_routing_sp_deterministic;
          Alcotest.test_case "ecmp spreads" `Quick test_routing_ecmp_spreads;
          Alcotest.test_case "detours only inrp" `Quick test_routing_detours_only_inrp;
          Alcotest.test_case "names" `Quick test_routing_names;
        ] );
      ( "workload",
        [
          Alcotest.test_case "distinct pairs" `Quick test_workload_distinct_pairs;
          Alcotest.test_case "role filter" `Quick test_workload_role_filter;
          Alcotest.test_case "sizes" `Quick test_workload_sizes;
          Alcotest.test_case "interarrivals" `Quick test_workload_interarrivals;
          Alcotest.test_case "pareto shape" `Quick test_workload_pareto_shape;
          Alcotest.test_case "role fallback" `Quick test_workload_role_fallback;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "deterministic" `Quick test_snapshot_deterministic;
          Alcotest.test_case "throughput bounds" `Quick test_snapshot_throughput_bounds;
          Alcotest.test_case "fig4a ordering" `Slow test_snapshot_fig4a_ordering;
          Alcotest.test_case "stretch bounds" `Slow test_snapshot_stretch_bounds;
          Alcotest.test_case "no-detour matches SP" `Quick test_snapshot_no_detour_matches_sp;
          Alcotest.test_case "validation" `Quick test_snapshot_validation;
          Alcotest.test_case "ensemble is the fold of runs" `Quick
            test_snapshot_ensemble_is_fold;
          Alcotest.test_case "ecmp ids skip unroutable pairs" `Quick
            test_snapshot_ecmp_ids_skip_unroutable;
        ] );
      ( "des",
        [
          Alcotest.test_case "conservation" `Quick test_des_conservation;
          Alcotest.test_case "deterministic" `Quick test_des_deterministic;
          Alcotest.test_case "underload completes" `Quick test_des_underload_completes_everything;
          Alcotest.test_case "inrp runs" `Quick test_des_inrp_runs;
          Alcotest.test_case "validation" `Quick test_des_validation;
          Alcotest.test_case "unroutable static" `Quick test_run_static_unroutable;
        ] );
      ( "flow",
        [
          Alcotest.test_case "lifecycle" `Quick test_flow_lifecycle;
          Alcotest.test_case "validation" `Quick test_flow_validation;
        ] );
      ( "alloc gate",
        [ Alcotest.test_case "inrp telstra snapshot" `Quick test_inrp_alloc_gate ] );
      ( "properties",
        qc
          [
            prop_max_min_within_capacity;
            prop_inrp_no_overbooking;
            prop_inrp_beats_or_matches_no_detour;
          ] );
    ]
