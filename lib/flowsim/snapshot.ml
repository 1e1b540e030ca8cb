module Graph = Topology.Graph
module Path = Topology.Path
module Link = Topology.Link

type result = {
  strategy : string;
  throughput : float;
  utilisation : float;
  goodput : float;
  delivered_fraction : float;
  mean_stretch : float;
  detoured_fraction : float;
  stretch_samples : Sim.Stats.Samples.t;
  flows : int;
}

let draw_pairs ~endpoints ~nflows ~seed g =
  (* reuse the workload's endpoint filtering; arrival rate is unused *)
  let wl = Workload.create ~endpoints ~arrival_rate:1. ~size:(Workload.Fixed 1.) ~seed g in
  List.init nflows (fun id ->
      let src, dst, _ = Workload.draw_flow wl ~time:0. ~id in
      (src, dst))

let utilisation_of_rates g paths rates =
  let nlinks = Graph.link_count g in
  let carried = Array.make nlinks 0. in
  Array.iteri
    (fun i p ->
      List.iter
        (fun (l : Link.t) ->
          carried.(l.Link.id) <- carried.(l.Link.id) +. rates.(i))
        p.Path.links)
    paths;
  let total_cap = Graph.total_capacity g in
  if total_cap <= 0. then 0.
  else Array.fold_left ( +. ) 0. carried /. total_cap

(* One snapshot on a routing state {!ensemble} shares across its seeds,
   since trees, ECMP path sets and detours depend only on the graph and
   the strategy. *)
let run_routed ~endpoints ~demand ~router ~nflows ~seed g =
  let strategy = Routing.strategy router in
  let pairs = draw_pairs ~endpoints ~nflows ~seed g in
  (* drop unroutable pairs (disconnected graphs); an ECMP flow hashes
     on its index among the routed pairs *)
  let routed = ref [] and next_id = ref 0 in
  List.iter
    (fun (src, dst) ->
      match Routing.route router ~flow_id:!next_id src dst with
      | Some p ->
        routed := p :: !routed;
        incr next_id
      | None -> ())
    pairs;
  let paths = Array.of_list (List.rev !routed) in
  (* every strategy's primary is a min-hop path, so its length is the
     pair's shortest hop count *)
  let shortest = Array.map Path.hops paths in
  let demands = Array.map (fun p -> (p, demand)) paths in
  let offered =
    if Float.is_finite demand then demand *. float_of_int (Array.length paths)
    else 0.
  in
  let throughput_of goodput =
    if offered > 0. then goodput /. offered else 0.
  in
  (* records each delivering flow's stretch, [hops i] over its
     shortest hop count, and returns their rate-weighted mean *)
  let stretch_samples = Sim.Stats.Samples.create () in
  let weighted_stretch rates hops =
    let num = ref 0. and den = ref 0. in
    Array.iteri
      (fun i r ->
        if r > 0. then begin
          let stretch = hops i /. float_of_int (max 1 shortest.(i)) in
          Sim.Stats.Samples.add stretch_samples stretch;
          num := !num +. (r *. stretch);
          den := !den +. r
        end)
      rates;
    if !den > 0. then !num /. !den else 1.
  in
  match strategy with
  | Routing.Inrp options ->
    let res =
      Allocation.inrp ~options ~detours:(Routing.detours router) g demands
    in
    let total_cap = Graph.total_capacity g in
    let carried = Array.fold_left ( +. ) 0. res.Allocation.link_carried in
    let goodput = Array.fold_left ( +. ) 0. res.Allocation.delivered in
    let pushed = Array.fold_left ( +. ) 0. res.Allocation.pushed in
    let mean_stretch =
      weighted_stretch res.Allocation.delivered (fun i ->
          res.Allocation.effective_hops.(i))
    in
    {
      strategy = Routing.name strategy;
      throughput = throughput_of goodput;
      utilisation = (if total_cap > 0. then carried /. total_cap else 0.);
      goodput;
      delivered_fraction = (if pushed > 0. then goodput /. pushed else 0.);
      mean_stretch;
      detoured_fraction = res.Allocation.detoured_fraction;
      stretch_samples;
      flows = Array.length paths;
    }
  | Routing.Sp | Routing.Ecmp _ ->
    let rates = Allocation.max_min g demands in
    let goodput = Array.fold_left ( +. ) 0. rates in
    let mean_stretch =
      weighted_stretch rates (fun i -> float_of_int (Path.hops paths.(i)))
    in
    {
      strategy = Routing.name strategy;
      throughput = throughput_of goodput;
      utilisation = utilisation_of_rates g paths rates;
      goodput;
      delivered_fraction = 1.;
      mean_stretch;
      detoured_fraction = 0.;
      stretch_samples;
      flows = Array.length paths;
    }

let ensemble ?(endpoints = Workload.Any_pair) ?(demand = infinity) ~strategy
    ~nflows ~seeds g =
  match seeds with
  | [] -> invalid_arg "Snapshot.ensemble: no seeds"
  | _ ->
    if nflows <= 0 then invalid_arg "Snapshot.ensemble: nflows <= 0";
    if demand <= 0. then invalid_arg "Snapshot.ensemble: demand <= 0";
    let router = Routing.create g strategy in
    let results =
      List.map
        (fun seed -> run_routed ~endpoints ~demand ~router ~nflows ~seed g)
        seeds
    in
    let n = float_of_int (List.length results) in
    let mean f = List.fold_left (fun acc r -> acc +. f r) 0. results /. n in
    let pooled = Sim.Stats.Samples.create () in
    List.iter
      (fun r ->
        Array.iter
          (Sim.Stats.Samples.add pooled)
          (Sim.Stats.Samples.to_sorted_array r.stretch_samples))
      results;
    {
      strategy = (List.hd results).strategy;
      throughput = mean (fun r -> r.throughput);
      utilisation = mean (fun r -> r.utilisation);
      goodput = mean (fun r -> r.goodput);
      delivered_fraction = mean (fun r -> r.delivered_fraction);
      mean_stretch = mean (fun r -> r.mean_stretch);
      detoured_fraction = mean (fun r -> r.detoured_fraction);
      stretch_samples = pooled;
      flows = List.fold_left (fun acc r -> acc + r.flows) 0 results;
    }
