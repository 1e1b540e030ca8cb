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

let flow_spec ?(start = 0.) ?content ~src ~dst chunks =
  if chunks <= 0 then invalid_arg "Protocol.flow_spec: chunks <= 0";
  if src = dst then invalid_arg "Protocol.flow_spec: src = dst";
  if start < 0. then invalid_arg "Protocol.flow_spec: negative start";
  { src; dst; chunks; start; content }

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

let run ?(cfg = Config.default) ?(horizon = 60.) ?(collect_trace = false)
    ?loss_rate ?obs ?check ?faults ?workload ?overload g specs =
  (match Config.validate cfg with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Protocol.run: " ^ msg));
  (match overload with
  | Some ov -> Overload.Config.validate ov
  | None -> ());
  (* generated flows ride behind the static list so existing scenarios
     keep their flow ids; generation is a pure function of (spec,
     graph), so a run with a workload is as replayable as one without.
     The generator is consumed as a lazy stream in one pass — no
     materialised request list, no intermediate append — so very long
     workloads cost only the final spec list. *)
  let specs =
    match workload with
    | None -> specs
    | Some w ->
      List.of_seq
        (Seq.append (List.to_seq specs)
           (Seq.map
              (fun (r : Workload.Request.t) ->
                {
                  src = r.Workload.Request.src;
                  dst = r.Workload.Request.dst;
                  chunks = r.Workload.Request.chunks;
                  start = r.Workload.Request.start;
                  content = Some r.Workload.Request.content;
                })
              (Workload.Gen.requests_seq w g)))
  in
  if specs = [] then invalid_arg "Protocol.run: no flows";
  if horizon <= 0. then invalid_arg "Protocol.run: horizon <= 0";
  let pitless = cfg.Config.pitless in
  let total_flows = List.length specs in
  (* every flow's route, resolved once and before any state exists:
     router installs, label stacks, base delays and pace rates all read
     it *)
  let routes =
    let route = route_finder g in
    Array.of_list
      (List.map
         (fun spec ->
           match route spec.src spec.dst with
           | Some p -> p
           | None ->
             invalid_arg
               (Printf.sprintf "Protocol.run: flow %d -> %d unroutable"
                  spec.src spec.dst))
         specs)
  in
  (* senders sharing an outgoing link pace at its processor-sharing
     share (§3.2: flows multiplexed processor-sharing); sharers.(l)
     counts the flows whose route starts on link l *)
  let sharers = Array.make (Graph.link_count g) 0 in
  Array.iter
    (fun (p : Path.t) ->
      match p.Path.links with
      | first :: _ -> sharers.(first.Link.id) <- sharers.(first.Link.id) + 1
      | [] -> ())
    routes;
  let fcts = Array.make total_flows None in
  (* PIT-less label stacks, per flow: the remaining nodes to the
     consumer (stamped onto data at the sender) and to the producer
     (stamped onto requests at the receiver).  Route reconvergence
     re-stamps them; in-flight packets ride their stale stack out. *)
  let data_routes = Array.make total_flows [] in
  let req_routes = Array.make total_flows [] in
  (* every node a flow's state was installed on, including nodes added
     by reconvergence — the teardown set (cfg.flow_teardown) *)
  let install_sites = Array.make total_flows [] in
  let eng = Sim.Engine.create () in
  let net =
    let discipline =
      if cfg.Config.drr_scheduler then
        Chunksim.Iface.Drr cfg.Config.chunk_bits
      else Chunksim.Iface.Fifo_discipline
    in
    Net.create ~queue_bits:cfg.Config.queue_bits
      ~speed_factor:cfg.Config.speed_factor ~discipline ?loss_rate eng g
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
  let spans_on =
    match obs with
    | Some o -> Option.is_some (Obs.Observer.spans o)
    | None -> false
  in
  (match trace with
  | Some tr when spans_on -> Trace.set_lifecycle tr true
  | _ -> ());
  let recorder =
    match obs with Some o -> Obs.Observer.recorder o | None -> None
  in
  let detours =
    Detour_table.create ~max_intermediate:(max 1 cfg.Config.max_detour) g
  in
  (* the link-state view exists in every run (all-up without faults,
     which is behaviourally identical to not having one) so router
     wiring does not depend on whether a schedule was passed *)
  let link_state = Topology.Link_state.create g in
  let faults_active =
    match faults with
    | Some s -> not (Fault.Schedule.is_empty s)
    | None -> false
  in
  (* the run's periodic work: ticks and drains visit only the routers
     this registry lists *)
  let registry = Router.registry ~nodes:(Graph.node_count g) in
  let routers =
    Array.init (Graph.node_count g) (fun node ->
        Router.create ~cfg ~net ~node ~detours ~link_state ?trace ?overload
          ~registry ())
  in
  (* neighbour-pressure oracle for detour refusal: each router can ask
     any node's custody occupancy fraction.  Installed only when the
     overload config would ever consult it. *)
  (match overload with
  | Some ov when ov.Overload.Config.neighbor_pressure < infinity ->
    let pressure node =
      let cache = Router.cache routers.(node) in
      Chunksim.Cache.custody_occupancy cache /. Chunksim.Cache.capacity cache
    in
    Array.iter (fun r -> Router.set_neighbor_pressure r pressure) routers
  | Some _ | None -> ());
  (* collapse watchdog: sliding-window goodput over consumer
     deliveries; a collapse dumps the flight recorder (when armed) so
     the events leading into the episode are on disk for post-mortem *)
  let watchdog =
    match overload with
    | Some ov when Overload.Config.watchdog_enabled ov ->
      Some
        (Obs.Watchdog.create ~window:ov.Overload.Config.watchdog_window
           ~collapse_ratio:ov.Overload.Config.collapse_ratio
           ~recovery_ratio:ov.Overload.Config.recovery_ratio
           ~on_collapse:(fun ~time ~rate ~peak ->
             match recorder with
             | Some rc ->
               Obs.Recorder.dump rc
                 ~reason:
                   (Printf.sprintf
                      "goodput collapse: %.3g bps in window (peak %.3g)" rate
                      peak)
                 ~time
             | None -> ())
           ())
    | Some _ | None -> None
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
  let k_tick = if profiling then Sim.Engine.profile_kind eng "tick" else 0 in
  let k_drain = if profiling then Sim.Engine.profile_kind eng "drain" else 0 in
  let k_sampler =
    if profiling then Sim.Engine.profile_kind eng "sampler" else 0
  in
  let k_flow_start =
    if profiling then Sim.Engine.profile_kind eng "flow_start" else 0
  in
  if profiling then begin
    let k_arrival = Sim.Engine.profile_kind eng "packet" in
    Net.iter_ifaces net (fun i ->
        Chunksim.Iface.set_profile_kind i k_arrival)
  end;
  (* invariant checkers: streaming checkers tap the trace, the custody
     ledger rides the estimator-tick probe (no extra engine events),
     and conservation is fed from the sender/consumer wrappers below *)
  let conservation =
    match (check, trace) with
    | Some chk, Some tr ->
      Check.Invariant.attach tr (Check.Invariant.phase_legality chk);
      Check.Invariant.attach tr (Check.Invariant.bp_ordering chk);
      let lossy = match loss_rate with Some r -> r > 0. | None -> false in
      let cons = Check.Invariant.Conservation.create ~lossy chk in
      Check.Invariant.attach tr (Check.Invariant.Conservation.handler cons);
      let flows = ref [||] in
      Array.iter
        (fun r ->
          Check.Invariant.custody_ledger chk
            ~name:(Printf.sprintf "node %d" (Router.node r))
            (fun () ->
              let cache = Router.cache r in
              let backlog = ref 0 in
              for i = 0 to Chunksim.Cache.custody_flows cache flows - 1 do
                backlog :=
                  !backlog
                  + Chunksim.Cache.custody_backlog cache ~flow:!flows.(i)
              done;
              (Router.custody_packet_count r, !backlog)))
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
  (* fault injection: the driver flips interfaces and detaches handlers
     mechanically; the callbacks layer protocol recovery (router
     failover, custody wipe attribution) and accounting on top.
     Recovery time is measured from each disruption to the next
     delivery anywhere in the network. *)
  let pending_disruptions = ref [] in
  let recovery_total = ref 0. in
  let recovery_count = ref 0 in
  let note_recovery_delivery now =
    match !pending_disruptions with
    | [] -> ()
    | ds ->
      List.iter
        (fun t0 ->
          recovery_total := !recovery_total +. (now -. t0);
          incr recovery_count)
        ds;
      pending_disruptions := []
  in
  let kill_data (p : Packet.t) =
    match (conservation, p.Packet.header) with
    | Some cons, Packet.Data { flow; idx; _ } ->
      Check.Invariant.Conservation.note_fault_loss cons
        ~time:(Sim.Engine.now eng) ~flow ~idx
    | _ -> ()
  in
  (* Route reconvergence: detoured data is source-routed and survives
     an outage on its own, but requests and back-pressure carry only a
     flow id — their hop-by-hop state must follow the residual
     topology.  After every link or node transition each flow is
     re-resolved in the surviving graph and its per-node next hops
     updated in place; a partitioned flow keeps its stale state until
     the topology heals.  The link state is fixed for the duration of
     one call, so flows from the same source share one tree. *)
  let reconverge () =
    let forbidden (l : Link.t) =
      not (Topology.Link_state.is_up link_state l.Link.id)
    in
    let route = route_finder ~forbidden_links:forbidden g in
    List.iteri
      (fun flow_id (spec : flow_spec) ->
        (* a released flow stays released: resurrecting its entries
           would leak them for the rest of the run *)
        if cfg.Config.flow_teardown && fcts.(flow_id) <> None then ()
        else
          match route spec.src spec.dst with
          | None -> ()
          | Some path ->
            if pitless then begin
              data_routes.(flow_id) <- List.tl path.Path.nodes;
              req_routes.(flow_id) <- List.tl (List.rev path.Path.nodes)
            end
            else begin
              let nodes = Array.of_list path.Path.nodes in
              let links = Array.of_list path.Path.links in
              let n = Array.length nodes in
              for k = 0 to n - 1 do
                let data_link = if k < n - 1 then Some links.(k) else None in
                let req_link =
                  if k > 0 then Graph.find_link g nodes.(k) nodes.(k - 1)
                  else None
                in
                Router.reroute_flow routers.(nodes.(k)) ?content:spec.content
                  ~flow:flow_id ~data_link ~req_link ()
              done;
              if cfg.Config.flow_teardown then
                install_sites.(flow_id) <-
                  List.fold_left
                    (fun acc nd ->
                      if List.mem nd acc then acc else nd :: acc)
                    install_sites.(flow_id) path.Path.nodes
            end)
      specs
  in
  let driver =
    match faults with
    | Some sched when faults_active ->
      Net.set_fault_tap net kill_data;
      let record ev =
        match trace with
        | Some tr -> Trace.record tr ~time:(Sim.Engine.now eng) ev
        | None -> ()
      in
      let disrupted () =
        pending_disruptions := Sim.Engine.now eng :: !pending_disruptions
      in
      Some
        (Fault.Driver.install ~link_state
           ~on_link_down:(fun link ->
             record (Trace.Link_fault { link; up = false });
             disrupted ();
             Array.iter (fun r -> Router.on_link_down r link) routers;
             reconverge ())
           ~on_link_up:(fun link ->
             record (Trace.Link_fault { link; up = true });
             Array.iter (fun r -> Router.on_link_up r link) routers;
             reconverge ())
           ~on_node_crash:(fun node policy ->
             record (Trace.Node_fault { node; up = false });
             disrupted ();
             let policy =
               match policy with
               | Fault.Schedule.Wipe_custody -> `Wipe
               | Fault.Schedule.Preserve_custody -> `Preserve
             in
             let wiped = Router.crash routers.(node) ~policy in
             (match conservation with
             | Some cons ->
               let now = Sim.Engine.now eng in
               List.iter
                 (fun (flow, idx) ->
                   Check.Invariant.Conservation.note_fault_loss cons
                     ~time:now ~flow ~idx)
                 wiped
             | None -> ());
             (match trace with
             | Some tr when Trace.lifecycle tr ->
               let now = Sim.Engine.now eng in
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
                   (Printf.sprintf "custody wiped: node %d lost %d chunks"
                      node (List.length wiped))
                 ~time:(Sim.Engine.now eng)
             | Some _ | None -> ());
             reconverge ())
           ~on_node_restart:(fun node ->
             record (Trace.Node_fault { node; up = true });
             Router.restart routers.(node);
             reconverge ())
           ~on_data_killed:kill_data net sched)
    | _ -> None
  in
  (* per-node endpoint dispatch: several flows may start or end at the
     same node *)
  let producers : (int, (int, Sender.t) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let consumers : (int, (int, Receiver.t) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let endpoint_table tbl node =
    match Hashtbl.find_opt tbl node with
    | Some sub -> sub
    | None ->
      let sub = Hashtbl.create 4 in
      Hashtbl.add tbl node sub;
      sub
  in
  let completed = ref 0 in
  let finished_at = ref None in
  let all_done () = !completed = total_flows in
  (* distribution metrics, observed at the receivers: per-flow
     completion times and per-chunk queueing delay (arrival time minus
     send timestamp minus the primary path's unloaded latency, so a
     detoured chunk shows its detour cost as queueing).  Histograms
     exist only when an observer asks; the handlers stay callback-free
     otherwise. *)
  let base_delay = Array.make total_flows 0. in
  let fct_hist, qdelay_hist =
    match obs with
    | None -> (None, None)
    | Some o ->
      let reg = Obs.Observer.registry o in
      ( Some
          (Obs.Metric.histogram reg ~lo:0. ~hi:horizon ~bins:64
             "flow_fct_seconds"),
        Some
          (Array.init total_flows (fun i ->
               Obs.Metric.histogram reg
                 ~labels:[ ("flow", string_of_int i) ]
                 ~lo:0. ~hi:10. ~bins:50 "chunk_queueing_delay_seconds")) )
  in
  (* set up each flow along its shortest path *)
  let receivers = Array.make total_flows None in
  List.iteri
    (fun flow_id spec ->
      let path = routes.(flow_id) in
      let nodes = Array.of_list path.Path.nodes in
      let links = Array.of_list path.Path.links in
      base_delay.(flow_id) <-
        List.fold_left
          (fun acc (l : Link.t) ->
            acc +. l.Link.delay
            +. (cfg.Config.chunk_bits
               /. (l.Link.capacity *. cfg.Config.speed_factor)))
          0. path.Path.links;
      let n = Array.length nodes in
      if pitless then begin
        (* no router state: the endpoints carry the whole path as a
           label stack — data towards the consumer, requests towards
           the producer *)
        data_routes.(flow_id) <- List.tl path.Path.nodes;
        req_routes.(flow_id) <- List.tl (List.rev path.Path.nodes)
      end
      else begin
        for k = 0 to n - 1 do
          let data_link = if k < n - 1 then Some links.(k) else None in
          let req_link =
            if k > 0 then Graph.find_link g nodes.(k) nodes.(k - 1) else None
          in
          Router.install_flow routers.(nodes.(k)) ?content:spec.content
            ~flow:flow_id ~data_link ~req_link ()
        done;
        install_sites.(flow_id) <- path.Path.nodes
      end;
      let pace_rate =
        match path.Path.links with
        | first :: _ ->
          first.Link.capacity *. cfg.Config.speed_factor
          /. float_of_int (max 1 sharers.(first.Link.id))
        | [] -> cfg.Config.chunk_bits (* unreachable: src <> dst *)
      in
      let transmit =
        let src_router = routers.(spec.src) in
        let base p =
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
                  {
                    p with
                    Packet.header =
                      Packet.Data
                        { d with detour_route = data_routes.(flow_id) };
                  }
                | Packet.Request _ | Packet.Backpressure _ -> p
              end
              else p
            in
            Router.originate_data src_router p
          end
        in
        base
      in
      let sender =
        Sender.create ~cfg ~eng ?trace ~flow:flow_id
          ~total_chunks:spec.chunks ~pace_rate ~transmit ()
      in
      Hashtbl.replace (endpoint_table producers spec.src) flow_id sender;
      let receiver =
        Receiver.create ~cfg ~eng ~flow:flow_id ~total_chunks:spec.chunks
          ~send_request:(fun p ->
            let p =
              if pitless then begin
                match p.Packet.header with
                | Packet.Request r ->
                  {
                    p with
                    Packet.header =
                      Packet.Request { r with route = req_routes.(flow_id) };
                  }
                | Packet.Data _ | Packet.Backpressure _ -> p
              end
              else p
            in
            Net.inject net ~at:spec.dst p)
          ~on_complete:(fun ~fct ->
            fcts.(flow_id) <- Some fct;
            (* teardown: recycle this flow's entry at every node it was
               installed on (fcts is set first, so reconvergence will
               not resurrect the entries) *)
            if cfg.Config.flow_teardown then begin
              List.iter
                (fun nd -> Router.release_flow routers.(nd) ~flow:flow_id)
                install_sites.(flow_id);
              install_sites.(flow_id) <- []
            end;
            (match fct_hist with
            | Some h -> Obs.Metric.observe h fct
            | None -> ());
            incr completed;
            if all_done () then finished_at := Some (Sim.Engine.now eng);
            match trace with
            | Some tr ->
              Trace.record tr ~time:(Sim.Engine.now eng)
                (Trace.Flow_complete { flow = flow_id; fct })
            | None -> ())
          ?overload ()
      in
      receivers.(flow_id) <- Some receiver;
      Hashtbl.replace (endpoint_table consumers spec.dst) flow_id receiver)
    specs;
  (* install node handlers: endpoint dispatch sits on top of routing *)
  for node = 0 to Graph.node_count g - 1 do
    let router = routers.(node) in
    (match Hashtbl.find_opt producers node with
    | Some senders ->
      Router.set_local_producer router (fun p ->
          match Hashtbl.find_opt senders (Packet.flow p) with
          | Some s -> Sender.handle s p
          | None -> ())
    | None -> ());
    (match Hashtbl.find_opt consumers node with
    | Some recvs ->
      let observe_data =
        match qdelay_hist with
        | None -> fun (_ : Packet.t) -> ()
        | Some hs ->
          fun (p : Packet.t) -> (
            match p.Packet.header with
            | Packet.Data { flow; born; _ } ->
              let d = Sim.Engine.now eng -. born -. base_delay.(flow) in
              Obs.Metric.observe hs.(flow) (Float.max 0. d)
            | _ -> ())
      in
      Router.set_local_consumer router (fun p ->
          observe_data p;
          (match trace with
          | Some tr when Trace.lifecycle tr -> begin
            match p.Packet.header with
            | Packet.Data { flow; idx; _ } ->
              Trace.record tr ~time:(Sim.Engine.now eng)
                (Trace.Delivered { node; flow; idx })
            | Packet.Request _ | Packet.Backpressure _ -> ()
          end
          | Some _ | None -> ());
          (if Option.is_some driver then
             match p.Packet.header with
             | Packet.Data _ ->
               note_recovery_delivery (Sim.Engine.now eng)
             | _ -> ());
          (match conservation with
          | Some cons -> (
            match p.Packet.header with
            | Packet.Data { flow; idx; _ } ->
              Check.Invariant.Conservation.note_delivery cons
                ~time:(Sim.Engine.now eng) ~flow ~idx
            | _ -> ())
          | None -> ());
          (match watchdog with
          | Some wd -> (
            match p.Packet.header with
            | Packet.Data _ ->
              Obs.Watchdog.note_delivery wd ~time:(Sim.Engine.now eng)
                ~bits:p.Packet.size
            | _ -> ())
          | None -> ());
          match Hashtbl.find_opt recvs (Packet.flow p) with
          | Some r -> Receiver.handle_data r p
          | None -> ())
    | None -> ());
    Net.set_handler net node (Router.handler router)
  done;
  (* observability: callback metrics read the counters the stack
     already maintains (zero hot-path cost), and a periodic sampler
     records per-interface phase / rate / queue and per-node custody
     timeseries at the estimator-tick resolution *)
  (match obs with
  | None -> ()
  | Some o ->
    let reg = Obs.Observer.registry o in
    Array.iter
      (fun r ->
        let labels = [ ("node", string_of_int (Router.node r)) ] in
        let c = Router.counters r in
        let fi name get =
          Obs.Metric.callback reg ~labels name (fun () ->
              float_of_int (get ()))
        in
        fi "router_forwarded_data_total" (fun () -> c.Router.forwarded_data);
        fi "router_detoured_total" (fun () -> c.Router.detoured);
        fi "router_custody_stored_total" (fun () -> c.Router.custody_stored);
        fi "router_custody_released_total" (fun () ->
            c.Router.custody_released);
        fi "router_dropped_total" (fun () -> c.Router.dropped);
        fi "router_bp_engages_total" (fun () -> c.Router.bp_engages);
        fi "router_bp_releases_total" (fun () -> c.Router.bp_releases);
        fi "router_cache_hits_total" (fun () -> c.Router.cache_hits);
        fi "router_phase_transitions_total" (fun () ->
            Router.phase_transitions r);
        fi "router_bp_active_flows" (fun () -> Router.bp_active_flows r);
        fi "router_flow_entries_live" (fun () -> Router.flow_entries_live r);
        fi "router_flow_entries_peak" (fun () -> Router.flow_entries_peak r);
        fi "router_flow_entries_recycled_total" (fun () ->
            Router.flow_entries_recycled r);
        fi "router_flow_table_bytes" (fun () -> Router.flow_table_bytes r);
        (* overload counters exist only when the control layer is on,
           so default runs export byte-identical metric sets *)
        if Option.is_some overload then begin
          fi "router_shed_total" (fun () -> c.Router.shed);
          fi "router_detours_refused_total" (fun () -> c.Router.detours_refused)
        end;
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
        f "iface_drops_total" (fun () ->
            float_of_int (Chunksim.Iface.drops i));
        f "iface_queue_bits" (fun () -> Chunksim.Iface.queue_occupancy i);
        f "iface_utilisation" (fun () ->
            Chunksim.Iface.utilisation i ~now:(Sim.Engine.now eng)));
    Hashtbl.iter
      (fun node senders ->
        Hashtbl.iter
          (fun flow s ->
            let labels =
              [ ("node", string_of_int node); ("flow", string_of_int flow) ]
            in
            let f name fn = Obs.Metric.callback reg ~labels name fn in
            f "sender_tx_packets_total" (fun () ->
                float_of_int (Sender.sent_packets s));
            f "sender_backlog_chunks" (fun () ->
                float_of_int (Sender.backlog s));
            f "sender_in_backpressure" (fun () ->
                if Sender.in_backpressure s then 1. else 0.))
          senders)
      producers;
    Hashtbl.iter
      (fun node recvs ->
        Hashtbl.iter
          (fun flow r ->
            let labels =
              [ ("node", string_of_int node); ("flow", string_of_int flow) ]
            in
            let f name fn = Obs.Metric.callback reg ~labels name fn in
            f "receiver_requests_total" (fun () ->
                float_of_int (Receiver.requests_sent r));
            f "receiver_duplicates_total" (fun () ->
                float_of_int (Receiver.duplicates r));
            f "receiver_chunks_received" (fun () ->
                float_of_int (Session.received_count (Receiver.session r))))
          recvs)
      consumers;
    let smp =
      Obs.Observer.install_sampler o ~eng ~default_interval:cfg.Config.ti
    in
    (* attribute the sampler's own engine events to their profiler
       bucket (hooks run first on each tick), and when a wall clock
       was configured surface the sampler's self-observation — its
       tick count and cumulative probe time — as metrics.  Registered
       only then, so clockless runs export byte-identical output. *)
    if profiling then
      Obs.Sampler.on_sample smp (fun () ->
          Sim.Engine.profile_mark eng k_sampler);
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
          [ ("node", string_of_int l.Link.src);
            ("link", string_of_int li) ]
        in
        let track name fn = ignore (Obs.Sampler.track smp ~labels name fn) in
        track "iface_phase" (fun () ->
            phase_value (Router.phase_of_link r li));
        track "iface_anticipated_bps" (fun () ->
            Option.value ~default:0. (Router.anticipated_rate_of_link r li));
        track "iface_anticipated_ratio" (fun () ->
            Option.value ~default:0. (Router.ratio_of_link r li));
        track "iface_queue_bits" (fun () ->
            Chunksim.Iface.queue_occupancy i);
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
            last_ph :=
              int_of_float (phase_value (Router.phase_of_link r li)));
        Array.iteri
          (fun pi pname ->
            let labels = ("phase", pname) :: labels in
            ignore
              (Obs.Sampler.track smp ~labels "iface_phase_occupancy"
                 (fun () ->
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
      fc "fault_node_restarts_total" (fun () ->
          Fault.Driver.node_restarts d);
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
    Obs.Sampler.start ~stop:all_done smp);
  (* periodic estimator ticks and custody drains; track custody peak
     over the routers holding custody (every other one holds 0) *)
  let peak_custody = ref 0. in
  let note_peak r =
    let occ = Chunksim.Cache.custody_occupancy (Router.cache r) in
    if occ > !peak_custody then peak_custody := occ
  in
  ignore
  @@ Sim.Engine.schedule_periodic eng ~interval:cfg.Config.ti (fun () ->
      Sim.Engine.profile_mark eng k_tick;
      Router.tick_sweep registry routers;
      Router.iter_custody registry routers note_peak;
      (match check with
      | Some chk -> Check.Invariant.probe chk ~time:(Sim.Engine.now eng)
      | None -> ());
      (* the watchdog needs a heartbeat: a total stall delivers nothing,
         so without ticks there would be no edge to detect it on *)
      (match watchdog with
      | Some wd when not (all_done ()) ->
        Obs.Watchdog.tick wd ~time:(Sim.Engine.now eng)
      | Some _ | None -> ());
      not (all_done ()));
  ignore
  @@ Sim.Engine.schedule_periodic eng ~interval:(cfg.Config.ti /. 4.)
       (fun () ->
         Sim.Engine.profile_mark eng k_drain;
         Router.drain_sweep registry routers;
         not (all_done ()));
  (* flow starts *)
  List.iteri
    (fun flow_id spec ->
      ignore
        (Sim.Engine.schedule eng ~delay:spec.start (fun () ->
             Sim.Engine.profile_mark eng k_flow_start;
             match receivers.(flow_id) with
             | Some r -> Receiver.start r
             | None -> ())))
    specs;
  Sim.Engine.run ~until:horizon eng;
  (* harvest the profiler before anything else touches the engine *)
  (match obs with
  | Some o when profiling ->
    Sim.Engine.profile_stop eng;
    Obs.Observer.set_profile_rows o (Sim.Engine.profile_rows eng)
  | _ -> ());
  (* a disruption with no delivery after it means recovery never
     happened: capture the tail of the run for post-mortem *)
  (match recorder with
  | Some rc when !pending_disruptions <> [] ->
    Obs.Recorder.dump rc
      ~reason:
        (Printf.sprintf "%d disruption(s) with no subsequent delivery"
           (List.length !pending_disruptions))
      ~time:(Sim.Engine.now eng)
  | Some _ | None -> ());
  (match check with
  | Some chk -> Check.Invariant.probe chk ~time:(Sim.Engine.now eng)
  | None -> ());
  (match conservation with
  | Some cons ->
    let in_custody =
      Array.fold_left
        (fun acc r -> acc + Router.custody_packet_count r)
        0 routers
    in
    let drops =
      Array.fold_left
        (fun acc r -> acc + (Router.counters r).Router.dropped)
        0 routers
    in
    Check.Invariant.Conservation.finish cons ~time:(Sim.Engine.now eng)
      ~quiescent:(all_done ()) ~in_custody ~drops
      ~wire_losses:(Net.total_wire_losses net)
  | None -> ());
  let sim_time =
    match !finished_at with
    | Some t -> t
    | None -> Sim.Engine.now eng
  in
  let sum f = Array.fold_left (fun acc r -> acc + f (Router.counters r)) 0 routers in
  let delivered_bits =
    List.fold_left
      (fun acc (spec, fr) ->
        ignore spec;
        acc +. (float_of_int fr *. cfg.Config.chunk_bits))
      0.
      (List.mapi
         (fun i spec ->
           ( spec,
             match receivers.(i) with
             | Some r -> Session.received_count (Receiver.session r)
             | None -> 0 ))
         specs)
  in
  let flows =
    Array.of_list
      (List.mapi
         (fun i spec ->
           let r = Option.get receivers.(i) in
           {
             spec;
             fct = fcts.(i);
             chunks_received = Session.received_count (Receiver.session r);
             duplicates = Receiver.duplicates r;
             requests_sent = Receiver.requests_sent r;
           })
         specs)
  in
  {
    flows;
    completed = !completed;
    sim_time;
    (* interface-queue refusals were handled by the routers (detour or
       custody); only router-level drops are real losses *)
    total_drops = sum (fun c -> c.Router.dropped);
    forwarded_data = sum (fun c -> c.Router.forwarded_data);
    detoured = sum (fun c -> c.Router.detoured);
    custody_stored = sum (fun c -> c.Router.custody_stored);
    custody_released = sum (fun c -> c.Router.custody_released);
    bp_engages = sum (fun c -> c.Router.bp_engages);
    bp_releases = sum (fun c -> c.Router.bp_releases);
    cache_hits = sum (fun c -> c.Router.cache_hits);
    phase_transitions =
      Array.fold_left (fun acc r -> acc + Router.phase_transitions r) 0 routers;
    peak_custody_bits = !peak_custody;
    mean_utilisation = Net.mean_utilisation net;
    goodput = (if sim_time > 0. then delivered_bits /. sim_time else 0.);
    engine_events = Sim.Engine.events_handled eng;
    chunks_lost_in_custody = sum (fun c -> c.Router.custody_wiped);
    failovers = sum (fun c -> c.Router.failovers);
    recovery_time =
      (if !recovery_count > 0 then
         Some (!recovery_total /. float_of_int !recovery_count)
       else None);
    shed = sum (fun c -> c.Router.shed);
    detours_refused = sum (fun c -> c.Router.detours_refused);
    collapse_episodes =
      (match watchdog with Some wd -> Obs.Watchdog.episodes wd | None -> 0);
    collapse_recovery_time =
      (match watchdog with
      | Some wd -> begin
        match Obs.Watchdog.recovery_times wd with
        | [] -> None
        | ts ->
          Some (List.fold_left ( +. ) 0. ts /. float_of_int (List.length ts))
      end
      | None -> None);
    flow_entries_live =
      Array.fold_left (fun acc r -> acc + Router.flow_entries_live r) 0 routers;
    flow_entries_peak =
      Array.fold_left (fun acc r -> acc + Router.flow_entries_peak r) 0 routers;
    flow_entries_recycled =
      Array.fold_left
        (fun acc r -> acc + Router.flow_entries_recycled r)
        0 routers;
    flow_table_bytes =
      Array.fold_left (fun acc r -> acc + Router.flow_table_bytes r) 0 routers;
    trace;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "%d/%d flows done in %.3gs; goodput=%a util=%.3f detoured=%d custody=%d \
     (peak %a) bp=%d/%d drops=%d transitions=%d"
    r.completed (Array.length r.flows) r.sim_time Sim.Units.pp_rate r.goodput
    r.mean_utilisation r.detoured r.custody_stored Sim.Units.pp_size
    r.peak_custody_bits r.bp_engages r.bp_releases r.total_drops
    r.phase_transitions
