module Graph = Topology.Graph
module Path = Topology.Path

type config = {
  strategy : Routing.strategy;
  arrival_rate : float;
  size : Workload.size_dist;
  endpoints : Workload.endpoints;
  warmup : float;
  duration : float;
  seed : int64;
  max_active : int;
}

let config ?(size = Workload.Exponential 4e6) ?(endpoints = Workload.Any_pair)
    ?(warmup = 2.) ?(duration = 8.) ?(seed = 1L) ?(max_active = 4000)
    ~strategy ~arrival_rate () =
  { strategy; arrival_rate; size; endpoints; warmup; duration; seed; max_active }

type state = {
  g : Graph.t;
  cfg : config;
  eng : Sim.Engine.t;
  wl : Workload.t;
  router : Routing.t;
  active : (int, Flow.t) Hashtbl.t;
  mutable last_update : float;
  mutable next_flow_id : int;
  mutable completion_handle : Sim.Event_queue.handle option;
  (* measurement *)
  mutable window_offered : float;
  mutable window_delivered : float;
  mutable window_arrivals : int;
  mutable window_rejected : int;
  mutable window_completions : int;
  fct_samples : Sim.Stats.Samples.t;
  stretch_samples : Sim.Stats.Samples.t;
  active_tl : Sim.Timeline.t;
  detour_tl : Sim.Timeline.t;
  mutable stretch_weight : float;   (* Σ delivered bits of completed flows *)
  mutable stretch_bits : float;     (* Σ delivered × stretch *)
}

let window_start st = st.cfg.warmup
let window_end st = st.cfg.warmup +. st.cfg.duration

let in_window st a b = a >= window_start st -. 1e-12 && b <= window_end st +. 1e-12

let sorted_flows st =
  let fs = Hashtbl.fold (fun _ f acc -> f :: acc) st.active [] in
  List.sort (fun (a : Flow.t) b -> Int.compare a.Flow.id b.Flow.id) fs

(* Drain every active flow from [last_update] to [now] at its current
   rate; bits drained inside the measurement window are accounted. *)
let advance_to st now =
  let dt = now -. st.last_update in
  if dt > 0. then begin
    let measured = in_window st st.last_update now in
    Hashtbl.iter
      (fun _ (f : Flow.t) ->
        let before = f.Flow.remaining in
        Flow.advance f ~dt;
        if measured then
          st.window_delivered <-
            st.window_delivered +. (before -. f.Flow.remaining))
      st.active;
    st.last_update <- now
  end

let record_active st =
  Sim.Timeline.record st.active_tl ~time:(Sim.Engine.now st.eng)
    (float_of_int (Hashtbl.length st.active))

(* completion handling is mutually recursive with reallocation via the
   event queue; tie the knot through a forward reference *)
let handle_completion_ref = ref (fun (_ : state) -> ())

let reallocate st =
  let now = Sim.Engine.now st.eng in
  let flows = Array.of_list (sorted_flows st) in
  let demands =
    Array.map (fun (f : Flow.t) -> (f.Flow.path, infinity)) flows
  in
  begin match Routing.strategy st.router with
  | Routing.Inrp options ->
    let res =
      Allocation.inrp ~options ~detours:(Routing.detours st.router) st.g
        demands
    in
    Array.iteri
      (fun i (f : Flow.t) ->
        f.Flow.rate <- res.Allocation.delivered.(i);
        f.Flow.effective_hops <- res.Allocation.effective_hops.(i))
      flows;
    Sim.Timeline.record st.detour_tl ~time:now res.Allocation.detoured_fraction
  | Routing.Sp | Routing.Ecmp _ ->
    let rates = Allocation.max_min st.g demands in
    Array.iteri
      (fun i (f : Flow.t) ->
        f.Flow.rate <- rates.(i);
        f.Flow.effective_hops <- float_of_int (Path.hops f.Flow.path))
      flows
  end;
  (* reschedule the next completion *)
  (match st.completion_handle with
  | Some h -> Sim.Engine.cancel h
  | None -> ());
  st.completion_handle <- None;
  let soonest = ref infinity in
  Array.iter
    (fun (f : Flow.t) ->
      if f.Flow.rate > 1e-9 then begin
        let eta = f.Flow.remaining /. f.Flow.rate in
        if eta < !soonest then soonest := eta
      end)
    flows;
  if Float.is_finite !soonest then begin
    let handler () = !handle_completion_ref st in
    (* floor the delay at 1 ns: an ETA below the float clock's
       resolution would fire at the same timestamp, drain nothing and
       loop forever *)
    st.completion_handle <-
      Some (Sim.Engine.schedule st.eng ~delay:(Float.max 1e-9 !soonest) handler)
  end

let handle_completion st =
  let now = Sim.Engine.now st.eng in
  advance_to st now;
  st.completion_handle <- None;
  let done_flows =
    (* a flow is complete when its residue is negligible in absolute
       terms or drains within a nanosecond at its current rate *)
    List.filter
      (fun (f : Flow.t) ->
        f.Flow.remaining <= 1e-6 || f.Flow.remaining <= f.Flow.rate *. 1e-9)
      (sorted_flows st)
  in
  List.iter
    (fun (f : Flow.t) ->
      f.Flow.completed_at <- Some now;
      Hashtbl.remove st.active f.Flow.id;
      if now >= window_start st && now <= window_end st then begin
        st.window_completions <- st.window_completions + 1;
        (match Flow.fct f with
        | Some v when f.Flow.arrival >= window_start st ->
          Sim.Stats.Samples.add st.fct_samples v
        | _ -> ());
        let s = Flow.stretch f in
        Sim.Stats.Samples.add st.stretch_samples s;
        st.stretch_weight <- st.stretch_weight +. f.Flow.delivered_bits;
        st.stretch_bits <- st.stretch_bits +. (f.Flow.delivered_bits *. s)
      end)
    done_flows;
  record_active st;
  reallocate st

let () = handle_completion_ref := handle_completion

let handle_arrival st =
  let now = Sim.Engine.now st.eng in
  advance_to st now;
  let id = st.next_flow_id in
  st.next_flow_id <- id + 1;
  let src, dst, size = Workload.draw_flow st.wl ~time:now ~id in
  let measured = now >= window_start st && now < window_end st in
  if measured then begin
    st.window_arrivals <- st.window_arrivals + 1;
    st.window_offered <- st.window_offered +. size
  end;
  let admitted =
    Hashtbl.length st.active < st.cfg.max_active
    &&
    match Routing.route st.router ~flow_id:id src dst with
    | None -> false
    | Some path ->
      let shortest_hops =
        Option.value ~default:(Path.hops path)
          (Routing.shortest_hops st.router src dst)
      in
      let f =
        Flow.make ~id ~src ~dst ~size ~arrival:now ~shortest_hops ~path
      in
      Hashtbl.add st.active id f;
      true
  in
  if (not admitted) && measured then
    st.window_rejected <- st.window_rejected + 1;
  record_active st;
  reallocate st

let run g cfg =
  if cfg.warmup < 0. || cfg.duration <= 0. then
    invalid_arg "Simulator.run: bad warmup/duration";
  if cfg.arrival_rate <= 0. then invalid_arg "Simulator.run: arrival_rate <= 0";
  let eng = Sim.Engine.create () in
  let st =
    {
      g;
      cfg;
      eng;
      wl =
        Workload.create ~endpoints:cfg.endpoints ~arrival_rate:cfg.arrival_rate
          ~size:cfg.size ~seed:cfg.seed g;
      router = Routing.create g cfg.strategy;
      active = Hashtbl.create 256;
      last_update = 0.;
      next_flow_id = 0;
      completion_handle = None;
      window_offered = 0.;
      window_delivered = 0.;
      window_arrivals = 0;
      window_rejected = 0;
      window_completions = 0;
      fct_samples = Sim.Stats.Samples.create ();
      stretch_samples = Sim.Stats.Samples.create ();
      active_tl = Sim.Timeline.create ~start:0.;
      detour_tl = Sim.Timeline.create ~start:0.;
      stretch_weight = 0.;
      stretch_bits = 0.;
    }
  in
  let horizon = window_end st in
  (* arrival process *)
  let rec schedule_next_arrival () =
    let gap = Workload.next_interarrival st.wl in
    let at = Sim.Engine.now eng +. gap in
    if at <= horizon then
      ignore
        (Sim.Engine.schedule eng ~delay:gap (fun () ->
             handle_arrival st;
             schedule_next_arrival ()))
  in
  schedule_next_arrival ();
  (* boundary markers so drain intervals never straddle the window *)
  ignore (Sim.Engine.schedule eng ~delay:cfg.warmup (fun () ->
      advance_to st (Sim.Engine.now eng)));
  ignore (Sim.Engine.schedule eng ~delay:horizon (fun () ->
      advance_to st (Sim.Engine.now eng)));
  Sim.Engine.run ~until:horizon eng;
  advance_to st horizon;
  let mean_fct =
    if Sim.Stats.Samples.count st.fct_samples = 0 then 0.
    else Sim.Stats.Samples.mean st.fct_samples
  in
  let p95_fct =
    if Sim.Stats.Samples.count st.fct_samples = 0 then 0.
    else Sim.Stats.Samples.percentile st.fct_samples 95.
  in
  {
    Results.strategy = Routing.name cfg.strategy;
    warmup = cfg.warmup;
    duration = cfg.duration;
    arrivals = st.window_arrivals;
    rejected = st.window_rejected;
    completions = st.window_completions;
    offered_bits = st.window_offered;
    delivered_bits = st.window_delivered;
    throughput =
      (if st.window_offered > 0. then st.window_delivered /. st.window_offered
       else 0.);
    mean_fct;
    p95_fct;
    mean_active = Sim.Timeline.time_average st.active_tl ~until:horizon;
    mean_stretch =
      (if st.stretch_weight > 0. then st.stretch_bits /. st.stretch_weight
       else 1.);
    stretch_samples = st.stretch_samples;
    detoured_fraction =
      (if Routing.is_inrp cfg.strategy then
         Sim.Timeline.time_average st.detour_tl ~until:horizon
       else 0.);
  }

let run_static g ~strategy pairs =
  let router = Routing.create g strategy in
  let paths =
    List.mapi
      (fun i (src, dst) ->
        match Routing.route router ~flow_id:i src dst with
        | Some p -> p
        | None ->
          invalid_arg
            (Printf.sprintf "Simulator.run_static: %d -> %d unroutable" src dst))
      pairs
  in
  let demands = Array.of_list (List.map (fun p -> (p, infinity)) paths) in
  match strategy with
  | Routing.Inrp options ->
    let res =
      Allocation.inrp ~options ~detours:(Routing.detours router) g demands
    in
    res.Allocation.delivered
  | Routing.Sp | Routing.Ecmp _ -> Allocation.max_min g demands
