module Graph = Topology.Graph
module Link = Topology.Link
module Path = Topology.Path
module Net = Chunksim.Net
module Packet = Chunksim.Packet
module Trace = Chunksim.Trace

type flow_spec = {
  src : Topology.Node.id;
  dst : Topology.Node.id;
  chunks : int;
  start : float;
  content : int option;
}

(* the one check of a spec: [flow_spec] runs it on what it builds and
   [run] on every spec it is given or generates, since a hand-built
   record skips the constructor *)
let check_spec who s =
  if s.chunks <= 0 then invalid_arg (who ^ ": chunks <= 0");
  if s.src = s.dst then invalid_arg (who ^ ": src = dst");
  if not (s.start >= 0.) then invalid_arg (who ^ ": negative or NaN start")

let flow_spec ?(start = 0.) ?content ~src ~dst chunks =
  let s = { src; dst; chunks; start; content } in
  check_spec "Protocol.flow_spec" s;
  s

type flow_result = {
  spec : flow_spec;
  fct : float option;
  chunks_received : int;
  duplicates : int;
  requests_sent : int;
}

type result = {
  flows : flow_result array;
  completed : int;
  sim_time : float;
  total_drops : int;
  forwarded_data : int;
  detoured : int;
  custody_stored : int;
  custody_released : int;
  bp_engages : int;
  bp_releases : int;
  cache_hits : int;
  phase_transitions : int;
  peak_custody_bits : float;
  mean_utilisation : float;
  goodput : float;
  engine_events : int;
  chunks_lost_in_custody : int;
  failovers : int;
  recovery_time : float option;
  shed : int;
  detours_refused : int;
  collapse_episodes : int;
  collapse_recovery_time : float option;
  flow_entries_live : int;
  flow_entries_peak : int;
  flow_entries_recycled : int;
  flow_table_bytes : int;
  trace : Chunksim.Trace.t option;
}

(* sampler encoding of an interface phase: -1 = no estimator yet *)
let phase_value = function
  | None -> -1.
  | Some Phase.Push_data -> 0.
  | Some Phase.Detour -> 1.
  | Some Phase.Backpressure -> 2.

let phase_names = [| "push"; "detour"; "backpressure" |]

(* Shortest-path lookup with one Dijkstra tree per distinct source,
   built on first use: resolving every flow costs at most one search
   per node, however many flows share a producer. *)
let route_finder ?forbidden_links g =
  let trees = Array.make (Graph.node_count g) None in
  fun src dst ->
    let tree =
      match trees.(src) with
      | Some t -> t
      | None ->
        let t = Topology.Dijkstra.run ?forbidden_links g src in
        trees.(src) <- Some t;
        t
    in
    Topology.Dijkstra.path_to tree dst

(* Generated flows ride behind the static list so existing scenarios
   keep their flow ids; generation is a pure function of (spec, graph),
   so a run with a workload is as replayable as one without.  The
   generator is consumed as a lazy stream in one pass, so very long
   workloads cost only the final spec array. *)
let expand workload g specs =
  match workload with
  | None -> Array.of_list specs
  | Some wl ->
    Array.of_seq
      (Seq.append (List.to_seq specs)
         (Seq.map
            (fun { Workload.Request.src; dst; chunks; start; content; _ } ->
              { src; dst; chunks; start; content = Some content })
            (Workload.Gen.requests_seq wl g)))

(* Run stages.  [wire] builds one run's state into a [wiring];
   [attach_faults], [attach_endpoints], [instrument] and [collect] read
   it, and [run] sequences them around the engine run. *)

type wiring = {
  cfg : Config.t;
  g : Graph.t;
  horizon : float;
  obs : Obs.Observer.t option;
  overload : Overload.Config.t;
  specs : flow_spec array;
  routes : Path.t array;
  eng : Sim.Engine.t;
  net : Net.t;
  trace : Trace.t option;
  recorder : Obs.Recorder.t option;
  link_state : Topology.Link_state.t;
  registry : Router.registry;
  routers : Router.t array;
  watchdog : Obs.Watchdog.t option;
  conservation : Check.Invariant.Conservation.t option;
  profiling : bool;
  k_tick : int; k_drain : int; k_sampler : int; k_flow_start : int;
  (* profiler kinds above: 0 when not profiling *)
  fcts : float option array;
  (* PIT-less label stacks towards the consumer and the producer *)
  data_routes : int list array;
  req_routes : int list array;
  (* every node a flow's state was placed on: the teardown set *)
  install_sites : int list array;
  mutable completed : int;
  mutable finished_at : float option;
  (* disruptions not yet followed by a delivery *)
  mutable pending_disruptions : float list;
  mutable recovery_total : float;
  mutable recovery_count : int;
  mutable peak_custody : float;
}

let all_done w = w.completed = Array.length w.specs

let sum_routers w f = Array.fold_left (fun acc r -> acc + f r) 0 w.routers

(* Route placement, at set-up ([Router.install_flow]) and on
   reconvergence ([Router.reroute_flow]).  PIT-less forwarding keeps
   no router state: the endpoints carry the path as label stacks, and
   a re-stamp leaves in-flight packets on their stale stack.
   Otherwise every node on the path gets its next hops both ways. *)
let place w op flow (path : Path.t) =
  if w.cfg.Config.pitless then begin
    w.data_routes.(flow) <- List.tl path.Path.nodes;
    w.req_routes.(flow) <- List.tl (List.rev path.Path.nodes)
  end
  else begin
    let content = w.specs.(flow).content in
    Path.iter_hops w.g path (fun node ~data_link ~req_link ->
        op w.routers.(node) ?content ~flow ~data_link ~req_link ());
    if w.cfg.Config.flow_teardown then
      w.install_sites.(flow) <-
        List.fold_left
          (fun acc nd -> if List.mem nd acc then acc else nd :: acc)
          w.install_sites.(flow) path.Path.nodes
  end

(* Route reconvergence: detoured data is source-routed and survives
   an outage on its own, but requests and back-pressure carry only a
   flow id — their hop-by-hop state must follow the residual
   topology.  After every link or node transition each flow is
   re-resolved in the surviving graph and placed again; a partitioned
   flow keeps its stale state until the topology heals.  The link
   state is fixed for the duration of one call, so flows from the same
   source share one tree. *)
let reconverge w =
  let forbidden (l : Link.t) =
    not (Topology.Link_state.is_up w.link_state l.Link.id)
  in
  let route = route_finder ~forbidden_links:forbidden w.g in
  Array.iteri
    (fun flow spec ->
      (* a released flow stays released: resurrecting its entries
         would leak them for the rest of the run *)
      if not (w.cfg.Config.flow_teardown && w.fcts.(flow) <> None) then
        Option.iter (place w Router.reroute_flow flow)
          (route spec.src spec.dst))
    w.specs

(* Validate the inputs, resolve every route, build the run's state and
   place every flow on its route.  Schedules no event. *)
let wire ~cfg ~horizon ~collect_trace ~loss_rate ~obs ~check ~workload
    ~overload g specs =
  (match Config.validate cfg with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Protocol.run: " ^ msg));
  let specs = expand workload g specs in
  if Array.length specs = 0 then invalid_arg "Protocol.run: no flows";
  if horizon <= 0. then invalid_arg "Protocol.run: horizon <= 0";
  Array.iter (check_spec "Protocol.run") specs;
  (* every flow's route, resolved once and before any state exists:
     router installs, label stacks, base delays and pace rates all read
     it *)
  let routes =
    let route = route_finder g in
    Array.map
      (fun spec ->
        match route spec.src spec.dst with
        | Some p -> p
        | None ->
          Printf.ksprintf invalid_arg "Protocol.run: flow %d -> %d unroutable"
            spec.src spec.dst)
      specs
  in
  let eng = Sim.Engine.create () in
  let net =
    let discipline =
      if cfg.Config.drr_scheduler then
        Chunksim.Iface.Drr cfg.Config.chunk_bits
      else Chunksim.Iface.Fifo_discipline
    in
    Net.create ~queue_bits:cfg.Config.queue_bits ~discipline ?loss_rate eng g
  in
  let trace =
    if collect_trace || Option.is_some obs || Option.is_some check then
      Some (Trace.create ())
    else None
  in
  (match (obs, trace) with
  | Some o, Some tr -> Obs.Observer.attach_trace o tr
  | _ -> ());
  (* span tracing: chunk-lifecycle events exist only when an observer
     carries a span collector, so every other run — goldens, bench,
     check, differential — sees the unchanged event stream *)
  let spans_on = Option.is_some (Option.bind obs Obs.Observer.spans) in
  if spans_on then Option.iter (fun tr -> Trace.set_lifecycle tr true) trace;
  let recorder = Option.bind obs Obs.Observer.recorder in
  let detours = Detour_table.create g in
  (* the link-state view exists in every run (all-up without faults,
     which is behaviourally identical to not having one) so router
     wiring does not depend on whether a schedule was passed *)
  let link_state = Topology.Link_state.create g in
  (* the run's periodic work: ticks and drains visit only the routers
     this registry lists *)
  let registry = Router.registry ~nodes:(Graph.node_count g) in
  let routers =
    Array.init (Graph.node_count g) (fun node ->
        Router.create ~cfg ~net ~node ~detours ~link_state ?trace ~overload
          ~registry ())
  in
  (* neighbour-pressure oracle for detour refusal: each router can ask
     any node's custody occupancy fraction.  Installed only under
     overload control, the one case that consults it. *)
  let on = overload <> Overload.Config.Off in
  if on then begin
    let pressure node =
      let cache = Router.cache routers.(node) in
      Chunksim.Cache.custody_occupancy cache /. Chunksim.Cache.capacity cache
    in
    Array.iter (fun r -> Router.set_neighbor_pressure r pressure) routers
  end;
  (* collapse watchdog: sliding-window goodput over consumer
     deliveries; a collapse dumps the flight recorder (when armed) so
     the events leading into the episode are on disk for post-mortem *)
  let watchdog =
    if on then
      Some
        (Obs.Watchdog.create ~window:Overload.Config.watchdog_window
           ~collapse_ratio:Overload.Config.collapse_ratio
           ~recovery_ratio:Overload.Config.recovery_ratio
           ~on_collapse:(fun ~time ~rate ~peak ->
             match recorder with
             | Some rc ->
               Obs.Recorder.dump rc
                 ~reason:
                   (Printf.sprintf
                      "goodput collapse: %.3g bps in window (peak %.3g)" rate
                      peak)
                 ~time
             | None -> ()))
    else None
  in
  (* wire-time span taps: the interface hands back each data packet's
     virtual transmission start (possibly earlier than now — see
     Trace.Tx_begin), recorded against the packed chunk key *)
  (match trace with
  | Some tr when spans_on ->
    Net.iter_ifaces net (fun i ->
        let li = (Chunksim.Iface.link i).Link.id in
        Chunksim.Iface.set_span_tap i
          (Some
             (fun start p ->
               match p.Packet.header with
               | Packet.Data { flow; idx; _ } ->
                 Trace.record tr ~time:start
                   (Trace.Tx_begin { link = li; flow; idx })
               | Packet.Request _ | Packet.Backpressure _ -> ())))
  | _ -> ());
  (* engine self-profiler: attribute wall-clock and minor-allocation
     deltas per event kind.  Kind ids are interned once here; marking
     is one store per event, and the whole feature is a single branch
     in the engine loop when no observer asked for it. *)
  let profiling =
    match obs with
    | Some o when Obs.Observer.profile_requested o ->
      (match Obs.Observer.clock o with
      | Some c -> Sim.Engine.profile_start ~clock:c eng
      | None -> Sim.Engine.profile_start eng);
      true
    | _ -> false
  in
  let kind name = if profiling then Sim.Engine.profile_kind eng name else 0 in
  let k_tick = kind "tick" in
  let k_drain = kind "drain" in
  let k_sampler = kind "sampler" in
  let k_flow_start = kind "flow_start" in
  if profiling then begin
    let k_arrival = kind "packet" in
    Net.iter_ifaces net (fun i -> Chunksim.Iface.set_profile_kind i k_arrival)
  end;
  (* invariant checkers: streaming checkers tap the trace, the custody
     ledger rides the estimator-tick probe (no extra engine events),
     and conservation is fed from the sender/consumer wrappers *)
  let conservation =
    match (check, trace) with
    | Some chk, Some tr ->
      Check.Invariant.attach tr (Check.Invariant.phase_legality chk);
      Check.Invariant.attach tr (Check.Invariant.bp_ordering chk);
      let lossy = match loss_rate with Some r -> r > 0. | None -> false in
      let cons = Check.Invariant.Conservation.create ~lossy chk in
      Check.Invariant.attach tr (Check.Invariant.Conservation.handler cons);
      Array.iter
        (fun r ->
          Check.Invariant.custody_ledger chk
            ~name:(Printf.sprintf "node %d" (Router.node r))
            (fun () -> Router.custody_ledger r))
        routers;
      Some cons
    | _ -> None
  in
  (* flight recorder: dump the recent-event ring the instant an
     invariant trips, while the state that tripped it is still inside
     the window *)
  (match (check, recorder) with
  | Some chk, Some rc ->
    Check.Invariant.on_violation chk (fun v ->
        Obs.Recorder.dump rc
          ~reason:("invariant: " ^ v.Check.Invariant.checker)
          ~time:v.Check.Invariant.time)
  | _ -> ());
  let n = Array.length specs in
  let w =
    { cfg; g; horizon; obs; overload; specs; routes; eng; net; trace;
      recorder; link_state; registry; routers; watchdog; conservation;
      profiling; k_tick; k_drain; k_sampler; k_flow_start;
      fcts = Array.make n None; data_routes = Array.make n [];
      req_routes = Array.make n []; install_sites = Array.make n [];
      completed = 0; finished_at = None; pending_disruptions = [];
      recovery_total = 0.; recovery_count = 0; peak_custody = 0. }
  in
  Array.iteri (place w Router.install_flow) routes;
  w

(* Fault injection: the driver flips interfaces and detaches handlers
   mechanically; these callbacks layer protocol recovery (router
   failover, reconvergence, custody wipe attribution) and accounting
   on top.  Installing the driver schedules the fault events. *)
let attach_faults w faults =
  match faults with
  | Some sched when not (Fault.Schedule.is_empty sched) ->
    let { eng; trace; recorder; routers; conservation; _ } = w in
    let kill_data (p : Packet.t) =
      match (conservation, p.Packet.header) with
      | Some cons, Packet.Data { flow; idx; _ } ->
        Check.Invariant.Conservation.note_fault_loss cons
          ~time:(Sim.Engine.now eng) ~flow ~idx
      | _ -> ()
    in
    Net.set_fault_tap w.net kill_data;
    let record ev =
      Option.iter (fun tr -> Trace.record tr ~time:(Sim.Engine.now eng) ev)
        trace
    in
    let disrupted () =
      w.pending_disruptions <- Sim.Engine.now eng :: w.pending_disruptions
    in
    Some
      (Fault.Driver.install ~link_state:w.link_state
         ~on_link_down:(fun link ->
           record (Trace.Link_fault { link; up = false });
           disrupted ();
           Array.iter (fun r -> Router.on_link_down r link) routers;
           reconverge w)
         ~on_link_up:(fun link ->
           record (Trace.Link_fault { link; up = true });
           Array.iter (fun r -> Router.on_link_up r link) routers;
           reconverge w)
         ~on_node_crash:(fun node policy ->
           record (Trace.Node_fault { node; up = false });
           disrupted ();
           let policy =
             match policy with
             | Fault.Schedule.Wipe_custody -> `Wipe
             | Fault.Schedule.Preserve_custody -> `Preserve
           in
           let wiped = Router.crash routers.(node) ~policy in
           let now = Sim.Engine.now eng in
           (match conservation with
           | Some cons ->
             List.iter
               (fun (flow, idx) ->
                 Check.Invariant.Conservation.note_fault_loss cons ~time:now
                   ~flow ~idx)
               wiped
           | None -> ());
           (match trace with
           | Some tr when Trace.lifecycle tr ->
             List.iter
               (fun (flow, idx) ->
                 Trace.record tr ~time:now
                   (Trace.Custody_evicted { node; flow; idx }))
               wiped
           | Some _ | None -> ());
           (match recorder with
           | Some rc when wiped <> [] ->
             Obs.Recorder.dump rc
               ~reason:
                 (Printf.sprintf "custody wiped: node %d lost %d chunks" node
                    (List.length wiped))
               ~time:now
           | Some _ | None -> ());
           reconverge w)
         ~on_node_restart:(fun node ->
           record (Trace.Node_fault { node; up = true });
           Router.restart routers.(node);
           reconverge w)
         ~on_data_killed:kill_data w.net sched)
  | Some _ | None -> None

(* recovery time runs from each disruption to the next delivery
   anywhere in the network *)
let note_recovery w now =
  match w.pending_disruptions with
  | [] -> ()
  | ds ->
    List.iter (fun t0 -> w.recovery_total <- w.recovery_total +. (now -. t0))
      ds;
    w.recovery_count <- w.recovery_count + List.length ds;
    w.pending_disruptions <- []

let complete_flow w fct_hist flow ~fct =
  w.fcts.(flow) <- Some fct;
  (* teardown: recycle this flow's entry at every node it was placed
     on (fcts is set first, so reconvergence will not resurrect the
     entries) *)
  if w.cfg.Config.flow_teardown then begin
    List.iter
      (fun nd -> Router.release_flow w.routers.(nd) ~flow)
      w.install_sites.(flow);
    w.install_sites.(flow) <- []
  end;
  (match fct_hist with Some h -> Obs.Metric.observe h fct | None -> ());
  w.completed <- w.completed + 1;
  if all_done w then w.finished_at <- Some (Sim.Engine.now w.eng);
  match w.trace with
  | Some tr ->
    Trace.record tr ~time:(Sim.Engine.now w.eng)
      (Trace.Flow_complete { flow; fct })
  | None -> ()

(* A sender at each flow's producer, a receiver at its consumer, and
   per-node endpoint dispatch on top of routing (several flows may
   start or end at one node).  Returns the senders and the receivers,
   both in flow-id order. *)
let attach_endpoints w ~faulted =
  let { cfg; eng; net; trace; routers; watchdog; conservation; specs; routes;
        data_routes; req_routes; _ } =
    w
  in
  let pitless = cfg.Config.pitless in
  (* senders sharing an outgoing link pace at its processor-sharing
     share (§3.2: flows multiplexed processor-sharing); sharers.(l)
     counts the flows whose route starts on link l.  Every route has a
     first link, since src <> dst. *)
  let sharers = Array.make (Graph.link_count w.g) 0 in
  Array.iter
    (fun (p : Path.t) ->
      let l = (List.hd p.Path.links).Link.id in
      sharers.(l) <- sharers.(l) + 1)
    routes;
  (* distribution metrics, observed at the receivers: per-flow
     completion times and per-chunk queueing delay (arrival time minus
     send timestamp minus the primary path's unloaded latency, so a
     detoured chunk shows its detour cost as queueing).  Histograms
     exist only when an observer asks; the handlers stay callback-free
     otherwise. *)
  let fct_hist, qdelay_hist =
    match w.obs with
    | None -> (None, None)
    | Some o ->
      let reg = Obs.Observer.registry o in
      ( Some
          (Obs.Metric.histogram reg ~lo:0. ~hi:w.horizon ~bins:64
             "flow_fct_seconds"),
        Some
          (Array.init (Array.length specs) (fun i ->
               Obs.Metric.histogram reg
                 ~labels:[ ("flow", string_of_int i) ]
                 ~lo:0. ~hi:10. ~bins:50 "chunk_queueing_delay_seconds")) )
  in
  let base_delay =
    Array.map (Path.unloaded_latency ~chunk_bits:cfg.Config.chunk_bits) routes
  in
  let endpoints =
    Array.init (Array.length specs) (fun flow ->
        let { src; dst; chunks; _ } = specs.(flow) in
        let pace_rate =
          let l = List.hd routes.(flow).Path.links in
          l.Link.capacity /. float_of_int sharers.(l.Link.id)
        in
        let src_router = routers.(src) in
        let transmit p =
          (* a crashed producer node transmits nothing (and the chunk is
             not counted as pushed — it never reached any wire) *)
          if not (Router.is_crashed src_router) then begin
            (match conservation with
            | Some cons -> (
              match p.Packet.header with
              | Packet.Data { flow; idx; _ } ->
                Check.Invariant.Conservation.note_push cons ~flow ~idx
              | _ -> ())
            | None -> ());
            let p =
              if pitless then begin
                match p.Packet.header with
                | Packet.Data d ->
                  { p with
                    Packet.header =
                      Packet.Data { d with detour_route = data_routes.(flow) } }
                | Packet.Request _ | Packet.Backpressure _ -> p
              end
              else p
            in
            Router.originate_data src_router p
          end
        in
        let sender =
          Sender.create ~cfg ~eng ?trace ~flow ~total_chunks:chunks ~pace_rate
            ~transmit ()
        in
        let receiver =
          Receiver.create ~cfg ~eng ~flow ~total_chunks:chunks
            ~send_request:(fun p ->
              let p =
                if pitless then begin
                  match p.Packet.header with
                  | Packet.Request r ->
                    { p with
                      Packet.header =
                        Packet.Request { r with route = req_routes.(flow) } }
                  | Packet.Data _ | Packet.Backpressure _ -> p
                end
                else p
              in
              Net.inject net ~at:dst p)
            ~on_complete:(complete_flow w fct_hist flow)
            ~overload:w.overload ()
        in
        (sender, receiver))
  in
  let senders = Array.map fst endpoints in
  let receivers = Array.map snd endpoints in
  (* a node dispatches to the endpoints of the flows it is an end of;
     a packet of any other flow is ignored *)
  let producer = Array.make (Graph.node_count w.g) false in
  let consumer = Array.make (Graph.node_count w.g) false in
  Array.iter
    (fun s ->
      producer.(s.src) <- true;
      consumer.(s.dst) <- true)
    specs;
  for node = 0 to Graph.node_count w.g - 1 do
    let router = routers.(node) in
    if producer.(node) then
      Router.set_local_producer router (fun p ->
          let flow = Packet.flow p in
          if specs.(flow).src = node then Sender.handle senders.(flow) p);
    if consumer.(node) then
      Router.set_local_consumer router (fun p ->
          (* delivery taps, in order: queueing delay, span, recovery,
             conservation, watchdog *)
          (match p.Packet.header with
          | Packet.Data { flow; idx; born; _ } ->
            (match qdelay_hist with
            | Some hs ->
              let d = Sim.Engine.now eng -. born -. base_delay.(flow) in
              Obs.Metric.observe hs.(flow) (Float.max 0. d)
            | None -> ());
            (match trace with
            | Some tr when Trace.lifecycle tr ->
              Trace.record tr ~time:(Sim.Engine.now eng)
                (Trace.Delivered { node; flow; idx })
            | Some _ | None -> ());
            if faulted then note_recovery w (Sim.Engine.now eng);
            (match conservation with
            | Some cons ->
              Check.Invariant.Conservation.note_delivery cons
                ~time:(Sim.Engine.now eng) ~flow ~idx
            | None -> ());
            (match watchdog with
            | Some wd ->
              Obs.Watchdog.note_delivery wd ~time:(Sim.Engine.now eng)
                ~bits:p.Packet.size
            | None -> ())
          | Packet.Request _ | Packet.Backpressure _ -> ());
          let flow = Packet.flow p in
          if specs.(flow).dst = node then
            Receiver.handle_data receivers.(flow) p);
    Net.set_handler net node (Router.handler router)
  done;
  (senders, receivers)

(* Observability: callback metrics read the counters the stack already
   maintains (zero hot-path cost), and a periodic sampler records
   per-interface phase / rate / queue and per-node custody timeseries
   at the estimator-tick resolution.  Metrics and series export in
   registration order, which this stage fixes; starting the sampler
   schedules its first event. *)
let instrument w ~driver ~senders ~receivers o =
  let { eng; net; routers; watchdog; link_state; _ } = w in
  let reg = Obs.Observer.registry o in
  Array.iter
    (fun r ->
      let labels = [ ("node", string_of_int (Router.node r)) ] in
      let c = Router.counters r in
      let fi name get =
        Obs.Metric.callback reg ~labels name (fun () -> float_of_int (get r))
      in
      fi "router_forwarded_data_total" (fun _ -> c.Router.forwarded_data);
      fi "router_detoured_total" (fun _ -> c.Router.detoured);
      fi "router_custody_stored_total" (fun _ -> c.Router.custody_stored);
      fi "router_custody_released_total" (fun _ -> c.Router.custody_released);
      fi "router_dropped_total" (fun _ -> c.Router.dropped);
      fi "router_bp_engages_total" (fun _ -> c.Router.bp_engages);
      fi "router_bp_releases_total" (fun _ -> c.Router.bp_releases);
      fi "router_cache_hits_total" (fun _ -> c.Router.cache_hits);
      fi "router_phase_transitions_total" Router.phase_transitions;
      fi "router_bp_active_flows" Router.bp_active_flows;
      fi "router_flow_entries_live" Router.flow_entries_live;
      fi "router_flow_entries_peak" Router.flow_entries_peak;
      fi "router_flow_entries_recycled_total" Router.flow_entries_recycled;
      fi "router_flow_table_bytes" Router.flow_table_bytes;
      fi "router_shed_total" (fun _ -> c.Router.shed);
      fi "router_detours_refused_total" (fun _ -> c.Router.detours_refused);
      Obs.Metric.callback reg ~labels "router_custody_occupancy_bits"
        (fun () -> Chunksim.Cache.custody_occupancy (Router.cache r)))
    routers;
  (match watchdog with
  | Some wd ->
    Obs.Metric.callback reg "watchdog_collapse_episodes" (fun () ->
        float_of_int (Obs.Watchdog.episodes wd));
    Obs.Metric.callback reg "watchdog_in_collapse" (fun () ->
        if Obs.Watchdog.in_collapse wd then 1. else 0.);
    Obs.Metric.callback reg "watchdog_recovery_seconds_total" (fun () ->
        Obs.Watchdog.total_recovery_time wd);
    Obs.Metric.callback reg "watchdog_goodput_peak_bps" (fun () ->
        Obs.Watchdog.peak wd)
  | None -> ());
  Net.iter_ifaces net (fun i ->
      let l = Chunksim.Iface.link i in
      let labels =
        [ ("link", string_of_int l.Link.id);
          ("src", string_of_int l.Link.src);
          ("dst", string_of_int l.Link.dst) ]
      in
      let f name fn = Obs.Metric.callback reg ~labels name fn in
      f "iface_tx_bits_total" (fun () -> Chunksim.Iface.tx_bits i);
      f "iface_drops_total" (fun () -> float_of_int (Chunksim.Iface.drops i));
      f "iface_queue_bits" (fun () -> Chunksim.Iface.queue_occupancy i);
      f "iface_utilisation" (fun () ->
          Chunksim.Iface.utilisation i ~now:(Sim.Engine.now eng)));
  (* per endpoint, in flow-id order *)
  let endpoint_metrics endpoints node_of metrics =
    Array.iteri
      (fun flow e ->
        let labels =
          [ ("node", string_of_int (node_of w.specs.(flow)));
            ("flow", string_of_int flow) ]
        in
        List.iter
          (fun (name, get) ->
            Obs.Metric.callback reg ~labels name (fun () ->
                float_of_int (get e)))
          metrics)
      endpoints
  in
  endpoint_metrics senders (fun s -> s.src)
    [ ("sender_tx_packets_total", Sender.sent_packets);
      ("sender_backlog_chunks", Sender.backlog);
      ("sender_in_backpressure", fun s ->
        Bool.to_int (Sender.in_backpressure s)) ];
  endpoint_metrics receivers (fun s -> s.dst)
    [ ("receiver_requests_total", Receiver.requests_sent);
      ("receiver_duplicates_total", Receiver.duplicates);
      ("receiver_chunks_received", fun r ->
        Session.received_count (Receiver.session r)) ];
  let smp =
    Obs.Observer.install_sampler o ~eng ~default_interval:Config.ti
  in
  (* attribute the sampler's own engine events to their profiler
     bucket (hooks run first on each tick), and when a wall clock was
     configured surface the sampler's self-observation — its tick count
     and cumulative probe time — as metrics.  Registered only then, so
     clockless runs export byte-identical output. *)
  if w.profiling then
    Obs.Sampler.on_sample smp (fun () ->
        Sim.Engine.profile_mark eng w.k_sampler);
  if Obs.Sampler.self_observing smp then begin
    Obs.Metric.callback reg "sampler_ticks_total" (fun () ->
        float_of_int (Obs.Sampler.ticks smp));
    Obs.Metric.callback reg "sampler_probe_seconds_total" (fun () ->
        Obs.Sampler.probe_seconds smp)
  end;
  Net.iter_ifaces net (fun i ->
      let l = Chunksim.Iface.link i in
      let r = routers.(l.Link.src) in
      let li = l.Link.id in
      let labels =
        [ ("node", string_of_int l.Link.src); ("link", string_of_int li) ]
      in
      let track name fn = ignore (Obs.Sampler.track smp ~labels name fn) in
      track "iface_phase" (fun () -> phase_value (Router.phase_of_link r li));
      track "iface_anticipated_bps" (fun () ->
          Option.value ~default:0. (Router.anticipated_rate_of_link r li));
      track "iface_anticipated_ratio" (fun () ->
          Option.value ~default:0. (Router.ratio_of_link r li));
      track "iface_queue_bits" (fun () -> Chunksim.Iface.queue_occupancy i);
      track "iface_utilisation" (fun () ->
          Chunksim.Iface.utilisation i ~now:(Sim.Engine.now eng));
      (* time-in-phase fractions, accumulated between samples *)
      let acc = [| 0.; 0.; 0. |] in
      let last_t = ref (Sim.Engine.now eng) in
      let last_ph = ref (-1) in
      Obs.Sampler.on_sample smp (fun () ->
          let t_now = Sim.Engine.now eng in
          if !last_ph >= 0 then
            acc.(!last_ph) <- acc.(!last_ph) +. (t_now -. !last_t);
          last_t := t_now;
          last_ph := int_of_float (phase_value (Router.phase_of_link r li)));
      Array.iteri
        (fun pi pname ->
          let labels = ("phase", pname) :: labels in
          ignore
            (Obs.Sampler.track smp ~labels "iface_phase_occupancy" (fun () ->
                 let tot = acc.(0) +. acc.(1) +. acc.(2) in
                 if tot <= 0. then 0. else acc.(pi) /. tot)))
        phase_names);
  Array.iter
    (fun r ->
      let labels = [ ("node", string_of_int (Router.node r)) ] in
      let track name fn = ignore (Obs.Sampler.track smp ~labels name fn) in
      track "custody_bits" (fun () ->
          Chunksim.Cache.custody_occupancy (Router.cache r));
      track "bp_active_flows" (fun () ->
          float_of_int (Router.bp_active_flows r));
      let c = Router.counters r in
      track "detoured_total" (fun () -> float_of_int c.Router.detoured))
    routers;
  (* fault observability only exists when a schedule is live, so a
     no-fault run's metric/timeseries output is byte-identical *)
  (match driver with
  | None -> ()
  | Some d ->
    let fc name fn =
      Obs.Metric.callback reg name (fun () -> float_of_int (fn ()))
    in
    fc "fault_link_downs_total" (fun () -> Fault.Driver.link_downs d);
    fc "fault_link_ups_total" (fun () -> Fault.Driver.link_ups d);
    fc "fault_node_crashes_total" (fun () -> Fault.Driver.node_crashes d);
    fc "fault_node_restarts_total" (fun () -> Fault.Driver.node_restarts d);
    fc "fault_control_drops_total" (fun () -> Fault.Driver.control_drops d);
    fc "fault_packet_kills_total" (fun () -> Net.total_fault_drops net);
    Net.iter_ifaces net (fun i ->
        let l = Chunksim.Iface.link i in
        ignore
          (Obs.Sampler.track smp
             ~labels:[ ("link", string_of_int l.Link.id) ]
             "link_up"
             (fun () ->
               if Topology.Link_state.is_up link_state l.Link.id then 1.
               else 0.))));
  Obs.Sampler.start ~stop:(fun () -> all_done w) smp

(* The result: per-flow outcomes in flow-id order and the counters
   summed over the routers. *)
let collect w receivers =
  let { cfg; eng; net; watchdog; _ } = w in
  let sim_time = Option.value w.finished_at ~default:(Sim.Engine.now eng) in
  let flows =
    Array.mapi
      (fun i r ->
        { spec = w.specs.(i); fct = w.fcts.(i);
          chunks_received = Session.received_count (Receiver.session r);
          duplicates = Receiver.duplicates r;
          requests_sent = Receiver.requests_sent r })
      receivers
  in
  let delivered_bits =
    Array.fold_left
      (fun acc fr ->
        acc +. (float_of_int fr.chunks_received *. cfg.Config.chunk_bits))
      0. flows
  in
  let sum = sum_routers w in
  {
    flows;
    completed = w.completed;
    sim_time;
    (* interface-queue refusals were handled by the routers (detour or
       custody); only router-level drops are real losses *)
    total_drops = sum (fun r -> (Router.counters r).Router.dropped);
    forwarded_data = sum (fun r -> (Router.counters r).Router.forwarded_data);
    detoured = sum (fun r -> (Router.counters r).Router.detoured);
    custody_stored = sum (fun r -> (Router.counters r).Router.custody_stored);
    custody_released =
      sum (fun r -> (Router.counters r).Router.custody_released);
    bp_engages = sum (fun r -> (Router.counters r).Router.bp_engages);
    bp_releases = sum (fun r -> (Router.counters r).Router.bp_releases);
    cache_hits = sum (fun r -> (Router.counters r).Router.cache_hits);
    phase_transitions = sum Router.phase_transitions;
    peak_custody_bits = w.peak_custody;
    mean_utilisation = Net.mean_utilisation net;
    goodput = (if sim_time > 0. then delivered_bits /. sim_time else 0.);
    engine_events = Sim.Engine.events_handled eng;
    chunks_lost_in_custody =
      sum (fun r -> (Router.counters r).Router.custody_wiped);
    failovers = sum (fun r -> (Router.counters r).Router.failovers);
    recovery_time =
      (if w.recovery_count > 0 then
         Some (w.recovery_total /. float_of_int w.recovery_count)
       else None);
    shed = sum (fun r -> (Router.counters r).Router.shed);
    detours_refused = sum (fun r -> (Router.counters r).Router.detours_refused);
    collapse_episodes =
      (match watchdog with Some wd -> Obs.Watchdog.episodes wd | None -> 0);
    collapse_recovery_time =
      (match Option.map Obs.Watchdog.recovery_times watchdog with
      | None | Some [] -> None
      | Some ts ->
        Some (List.fold_left ( +. ) 0. ts /. float_of_int (List.length ts)));
    flow_entries_live = sum Router.flow_entries_live;
    flow_entries_peak = sum Router.flow_entries_peak;
    flow_entries_recycled = sum Router.flow_entries_recycled;
    flow_table_bytes = sum Router.flow_table_bytes;
    trace = w.trace;
  }

(* Stage order is event order: seqs are taken at schedule time, so the
   fault events (scheduled by [attach_faults]) come before the sampler
   start ([instrument]), the tick, the drain and the flow starts. *)
let run ?(cfg = Config.default) ?(horizon = 60.) ?(collect_trace = false)
    ?loss_rate ?obs ?check ?faults ?workload
    ?(overload = Overload.Config.Off) g specs =
  let w =
    wire ~cfg ~horizon ~collect_trace ~loss_rate ~obs ~check ~workload
      ~overload g specs
  in
  let driver = attach_faults w faults in
  let senders, receivers =
    attach_endpoints w ~faulted:(Option.is_some driver)
  in
  Option.iter (instrument w ~driver ~senders ~receivers) obs;
  (* periodic estimator ticks and custody drains; track custody peak
     over the routers holding custody (every other one holds 0) *)
  let { eng; registry; routers; watchdog; k_tick; k_drain; k_flow_start; _ } =
    w
  in
  let note_peak r =
    let occ = Chunksim.Cache.custody_occupancy (Router.cache r) in
    if occ > w.peak_custody then w.peak_custody <- occ
  in
  Sim.Engine.schedule_periodic eng ~interval:Config.ti (fun () ->
      Sim.Engine.profile_mark eng k_tick;
      Router.tick_sweep registry routers;
      Router.iter_custody registry routers note_peak;
      (match check with
      | Some chk -> Check.Invariant.probe chk ~time:(Sim.Engine.now eng)
      | None -> ());
      (* the watchdog needs a heartbeat: a total stall delivers nothing,
         so without ticks there would be no edge to detect it on *)
      (match watchdog with
      | Some wd when not (all_done w) ->
        Obs.Watchdog.tick wd ~time:(Sim.Engine.now eng)
      | Some _ | None -> ());
      not (all_done w));
  Sim.Engine.schedule_periodic eng ~interval:(Config.ti /. 4.) (fun () ->
      Sim.Engine.profile_mark eng k_drain;
      Router.drain_sweep registry routers;
      not (all_done w));
  Array.iteri
    (fun flow r ->
      ignore
        (Sim.Engine.schedule eng ~delay:w.specs.(flow).start (fun () ->
             Sim.Engine.profile_mark eng k_flow_start;
             Receiver.start r)))
    receivers;
  Sim.Engine.run ~until:horizon eng;
  (* harvest the profiler before anything else touches the engine *)
  (match obs with
  | Some o when w.profiling ->
    Sim.Engine.profile_stop eng;
    Obs.Observer.set_profile_rows o (Sim.Engine.profile_rows eng)
  | _ -> ());
  (* a disruption with no delivery after it means recovery never
     happened: capture the tail of the run for post-mortem *)
  (match w.recorder with
  | Some rc when w.pending_disruptions <> [] ->
    Obs.Recorder.dump rc
      ~reason:
        (Printf.sprintf "%d disruption(s) with no subsequent delivery"
           (List.length w.pending_disruptions))
      ~time:(Sim.Engine.now eng)
  | Some _ | None -> ());
  (match check with
  | Some chk -> Check.Invariant.probe chk ~time:(Sim.Engine.now eng)
  | None -> ());
  (match w.conservation with
  | Some cons ->
    Check.Invariant.Conservation.finish cons ~time:(Sim.Engine.now eng)
      ~quiescent:(all_done w)
      ~in_custody:(sum_routers w Router.custody_packet_count)
      ~drops:(sum_routers w (fun r -> (Router.counters r).Router.dropped))
      ~wire_losses:(Net.total_wire_losses w.net)
  | None -> ());
  collect w receivers

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "%d/%d flows done in %.3gs; goodput=%a util=%.3f detoured=%d custody=%d \
     (peak %a) bp=%d/%d drops=%d transitions=%d"
    r.completed (Array.length r.flows) r.sim_time Sim.Units.pp_rate r.goodput
    r.mean_utilisation r.detoured r.custody_stored Sim.Units.pp_size
    r.peak_custody_bits r.bp_engages r.bp_releases r.total_drops
    r.phase_transitions
