module Link = Topology.Link
module Net = Chunksim.Net
module Packet = Chunksim.Packet
module Trace = Chunksim.Trace

type t = {
  eng : Sim.Engine.t;
  net : Net.t;
  routers : Router.t array;
  obs : Obs.Observer.t option;
  check : Check.Invariant.t option;
  trace : Trace.t option;
  recorder : Obs.Recorder.t option;
  watchdog : Obs.Watchdog.t option;
  conservation : Check.Invariant.Conservation.t option;
  kinds : int array;
  (* profiler kinds of tick, drain, sampler, flow start; 0 unprofiled *)
  hists : (Obs.Metric.histogram * Obs.Metric.histogram array * float array)
      option;
  (* FCT, then per flow the queueing delay and the unloaded latency *)
}

type stage = Tick | Drain | Flow_start

let dump rc ~time reason = Obs.Recorder.dump rc ~reason ~time

let new_trace ~trace ~obs ~check =
  if Option.is_some trace || (obs = None && check = None) then trace
  else Some (Trace.create ())

let create ~cfg ~horizon ~loss_rate ~obs ~check ~watchdog ~trace eng net
    routes routers =
  if Option.is_none trace && not watchdog then None
  else begin
    Option.iter (fun o -> Option.iter (Obs.Observer.attach_trace o) trace) obs;
    let recorder = Option.bind obs Obs.Observer.recorder in
    (* collapse watchdog: sliding-window goodput over consumer
       deliveries; a collapse dumps the flight recorder (when armed) so
       the events leading into the episode are on disk for post-mortem *)
    let watchdog =
      if watchdog then
        Some
          (Obs.Watchdog.create ~window:Overload.Config.watchdog_window
             ~collapse_ratio:Overload.Config.collapse_ratio
             ~recovery_ratio:Overload.Config.recovery_ratio
             ~on_collapse:(fun ~time ~rate ~peak ->
               Option.iter
                 (fun rc ->
                   dump rc ~time
                     (Printf.sprintf
                        "goodput collapse: %.3g bps in window (peak %.3g)" rate
                        peak))
                 recorder))
      else None
    in
    (* span tracing: chunk-lifecycle events exist only when an observer
       carries a span collector, so every other run — goldens, bench,
       check, differential — sees the unchanged event stream.  At the
       wire the interface hands back each data packet's virtual
       transmission start (possibly earlier than now — see
       Trace.Tx_begin), recorded against the packed chunk key. *)
    (match (trace, Option.bind obs Obs.Observer.spans) with
    | Some tr, Some _ ->
      Trace.set_lifecycle tr true;
      Net.iter_ifaces net (fun i ->
          let li = (Chunksim.Iface.link i).Link.id in
          Chunksim.Iface.set_span_tap i
            (Some
               (fun start p ->
                 match p with
                 | Packet.Data { flow; idx; _ } ->
                   Trace.record tr ~time:start
                     (Trace.Tx_begin { link = li; flow; idx })
                 | Packet.Request _ | Packet.Backpressure _ -> ())))
    | _ -> ());
    (* engine self-profiler: attribute wall-clock and minor-allocation
       deltas per event kind.  Kind ids are interned once here; marking
       is one store per event, and the whole feature is a single branch
       in the engine loop when no observer asked for it. *)
    (match obs with
    | Some o when Obs.Observer.profile_requested o ->
      Sim.Engine.profile_start ?clock:(Obs.Observer.clock o) eng
    | _ -> ());
    let profiling = Sim.Engine.profiling eng in
    let kind name = if profiling then Sim.Engine.profile_kind eng name else 0 in
    let kinds = Array.map kind [| "tick"; "drain"; "sampler"; "flow_start" |] in
    if profiling then begin
      let k_arrival = kind "packet" in
      Net.iter_ifaces net (fun i -> Chunksim.Iface.set_profile_kind i k_arrival)
    end;
    (* invariant checkers: streaming checkers tap the trace, the custody
       ledger rides the estimator-tick probe (no extra engine events),
       and conservation is fed from the sender/consumer hooks *)
    let conservation =
      match (check, trace) with
      | Some chk, Some tr ->
        Trace.on_record tr (Check.Invariant.phase_legality chk);
        Trace.on_record tr (Check.Invariant.bp_ordering chk);
        let lossy = match loss_rate with Some r -> r > 0. | None -> false in
        let cons = Check.Invariant.Conservation.create ~lossy chk in
        Trace.on_record tr (Check.Invariant.Conservation.handler cons);
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
          dump rc ~time:v.Check.Invariant.time
            ("invariant: " ^ v.Check.Invariant.checker))
    | _ -> ());
    (* distribution metrics, observed at the receivers: per-flow
       completion times and per-chunk queueing delay (arrival time minus
       send timestamp minus the primary path's unloaded latency, so a
       detoured chunk shows its detour cost as queueing).  Histograms
       exist only when an observer asks. *)
    let hists =
      Option.map
        (fun o ->
          let hist = Obs.Metric.histogram (Obs.Observer.registry o) in
          (* the export lists the queueing delays first *)
          let qdelay =
            Array.init (Array.length routes) (fun i ->
                hist ~labels:[ ("flow", string_of_int i) ] ~lo:0. ~hi:10.
                  ~bins:50 "chunk_queueing_delay_seconds")
          in
          ( hist ~lo:0. ~hi:horizon ~bins:64 "flow_fct_seconds",
            qdelay,
            Array.map
              (Topology.Path.unloaded_latency ~chunk_bits:cfg.Config.chunk_bits)
              routes ))
        obs
    in
    Some
      { eng; net; routers; obs; check; trace; recorder; watchdog; conservation;
        kinds; hists }
  end

let trace = function Some t -> t.trace | None -> None

(* Callback metrics read the counters the stack already maintains
   (zero hot-path cost), and the sampler records per-interface and
   per-node series at the estimator-tick resolution.  Metrics and
   series export in registration order, which this function fixes. *)
let instrument t o ~link_state ~driver ~senders ~receivers ~src ~dst ~finished
    =
  let { eng; net; routers; watchdog; _ } = t in
  let reg = Obs.Observer.registry o in
  let smp =
    Obs.Observer.install_sampler o ~eng ~default_interval:Config.ti
  in
  (* the sampler's own events, to its profiler kind *)
  if Sim.Engine.profiling eng then
    Obs.Sampler.on_sample smp (fun () ->
        Sim.Engine.profile_mark eng t.kinds.(2));
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
    let f = Obs.Metric.callback reg in
    f "watchdog_collapse_episodes" (fun () ->
        float_of_int (Obs.Watchdog.episodes wd));
    f "watchdog_in_collapse" (fun () ->
        Bool.to_float (Obs.Watchdog.in_collapse wd));
    f "watchdog_recovery_seconds_total" (fun () ->
        Obs.Watchdog.total_recovery_time wd);
    f "watchdog_goodput_peak_bps" (fun () -> Obs.Watchdog.peak wd)
  | None -> ());
  Net.iter_ifaces net (fun i ->
      let l = Chunksim.Iface.link i in
      let r = routers.(l.Link.src) and li = l.Link.id in
      let queue () = Chunksim.Iface.queue_occupancy i in
      let util () = Chunksim.Iface.utilisation i ~now:(Sim.Engine.now eng) in
      let labels =
        [ ("link", string_of_int li); ("src", string_of_int l.Link.src);
          ("dst", string_of_int l.Link.dst) ]
      in
      let f name fn = Obs.Metric.callback reg ~labels name fn in
      f "iface_tx_bits_total" (fun () -> Chunksim.Iface.tx_bits i);
      f "iface_drops_total" (fun () -> float_of_int (Chunksim.Iface.drops i));
      f "iface_queue_bits" queue;
      f "iface_utilisation" util;
      let labels =
        [ ("node", string_of_int l.Link.src); ("link", string_of_int li) ]
      in
      let track name fn = ignore (Obs.Sampler.track smp ~labels name fn) in
      let phase () =
        match Router.phase_of_link r li with
        | None -> -1. (* no estimator yet *)
        | Some Phase.Push_data -> 0.
        | Some Phase.Detour -> 1.
        | Some Phase.Backpressure -> 2.
      in
      track "iface_phase" phase;
      track "iface_anticipated_bps" (fun () ->
          Option.value ~default:0. (Router.anticipated_rate_of_link r li));
      track "iface_anticipated_ratio" (fun () ->
          Option.value ~default:0. (Router.ratio_of_link r li));
      track "iface_queue_bits" queue;
      track "iface_utilisation" util;
      Obs.Sampler.track_shares smp ~labels "iface_phase_occupancy"
        ~key:"phase"
        (Array.map Trace.phase_name [| Push_data; Detour; Backpressure |])
        (fun () -> int_of_float (phase ())));
  (* per endpoint, in flow-id order *)
  let endpoint_metrics endpoints node_of metrics =
    Array.iteri
      (fun flow e ->
        let labels = [ ("node", node_of flow); ("flow", string_of_int flow) ] in
        List.iter
          (fun (name, get) ->
            Obs.Metric.callback reg ~labels name (fun () ->
                float_of_int (get e)))
          metrics)
      endpoints
  in
  endpoint_metrics senders (fun f -> string_of_int (src f))
    [ ("sender_tx_packets_total", Sender.sent_packets);
      ("sender_backlog_chunks", Sender.backlog);
      ("sender_in_backpressure", fun s ->
        Bool.to_int (Sender.in_backpressure s)) ];
  endpoint_metrics receivers (fun f -> string_of_int (dst f))
    [ ("receiver_requests_total", Receiver.requests_sent);
      ("receiver_duplicates_total", Receiver.duplicates);
      ("receiver_chunks_received", fun r ->
        Session.received_count (Receiver.session r)) ];
  (* the sampler's self-observation, only with a wall clock, so
     clockless runs export byte-identical output *)
  if Obs.Sampler.self_observing smp then begin
    Obs.Metric.callback reg "sampler_ticks_total" (fun () ->
        float_of_int (Obs.Sampler.ticks smp));
    Obs.Metric.callback reg "sampler_probe_seconds_total" (fun () ->
        Obs.Sampler.probe_seconds smp)
  end;
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
      Obs.Metric.callback reg name (fun () -> float_of_int (fn d))
    in
    fc "fault_link_downs_total" Fault.Driver.link_downs;
    fc "fault_link_ups_total" Fault.Driver.link_ups;
    fc "fault_node_crashes_total" Fault.Driver.node_crashes;
    fc "fault_node_restarts_total" Fault.Driver.node_restarts;
    fc "fault_control_drops_total" Fault.Driver.control_drops;
    fc "fault_packet_kills_total" (fun _ -> Net.total_fault_drops net);
    Net.iter_ifaces net (fun i ->
        let li = (Chunksim.Iface.link i).Link.id in
        ignore
          (Obs.Sampler.track smp ~labels:[ ("link", string_of_int li) ]
             "link_up" (fun () ->
               Bool.to_float (Topology.Link_state.is_up link_state li)))));
  Obs.Sampler.start ~stop:finished smp

let start t ~link_state ~driver ~senders ~receivers ~src ~dst ~finished =
  match t with
  | Some ({ obs = Some o; _ } as t) ->
    instrument t o ~link_state ~driver ~senders ~receivers ~src ~dst ~finished
  | Some _ | None -> ()

let mark t stage =
  match t with
  | None -> ()
  | Some { eng; kinds; _ } ->
    Sim.Engine.profile_mark eng
      kinds.(match stage with Tick -> 0 | Drain -> 1 | Flow_start -> 3)

let account t (p : Packet.t) ~lost =
  match t with
  | Some { conservation = Some cons; eng; _ } -> (
    match p with
    | Packet.Data { flow; idx; _ } ->
      if lost then
        Check.Invariant.Conservation.note_fault_loss cons
          ~time:(Sim.Engine.now eng) ~flow ~idx
      else Check.Invariant.Conservation.note_push cons ~flow ~idx
    | Packet.Request _ | Packet.Backpressure _ -> ())
  | Some _ | None -> ()

let pushed t p = account t p ~lost:false
let fault_loss t p = account t p ~lost:true

let delivered t ~node (p : Packet.t) =
  match t with
  | None -> ()
  | Some { eng; hists; trace; conservation; watchdog; _ } -> (
    match p with
    | Packet.Request _ | Packet.Backpressure _ -> ()
    | Packet.Data { flow; idx; born_bits; size; _ } ->
      (match hists with
      | Some (_, hs, base_delay) ->
        let born = Packet.born_of_bits born_bits in
        let d = Sim.Engine.now eng -. born -. base_delay.(flow) in
        Obs.Metric.observe hs.(flow) (Float.max 0. d)
      | None -> ());
      (match trace with
      | Some tr when Trace.lifecycle tr ->
        Trace.record tr ~time:(Sim.Engine.now eng)
          (Trace.Delivered { node; flow; idx })
      | Some _ | None -> ());
      (match conservation with
      | Some cons ->
        Check.Invariant.Conservation.note_delivery cons
          ~time:(Sim.Engine.now eng) ~flow ~idx
      | None -> ());
      (match watchdog with
      | Some wd ->
        Obs.Watchdog.note_delivery wd ~time:(Sim.Engine.now eng)
          ~bits:size
      | None -> ()))

let record t ev =
  match t with
  | Some { trace = Some tr; eng; _ } ->
    Trace.record tr ~time:(Sim.Engine.now eng) ev
  | Some _ | None -> ()

let completed t ~flow ~fct =
  match t with
  | None -> ()
  | Some { hists; _ } ->
    (match hists with Some (h, _, _) -> Obs.Metric.observe h fct | None -> ());
    record t (Trace.Flow_complete { flow; fct })

let link_fault t ~link ~up =
  if Option.is_some t then record t (Trace.Link_fault { link; up })

let node_fault t ~node ~up =
  if Option.is_some t then record t (Trace.Node_fault { node; up })

let custody_wiped t ~node wiped =
  match t with
  | None -> ()
  | Some { eng; conservation; trace; recorder; _ } ->
    let now = Sim.Engine.now eng in
    (match conservation with
    | Some cons ->
      List.iter
        (fun (flow, idx) ->
          Check.Invariant.Conservation.note_fault_loss cons ~time:now ~flow
            ~idx)
        wiped
    | None -> ());
    (match trace with
    | Some tr when Trace.lifecycle tr ->
      List.iter
        (fun (flow, idx) ->
          Trace.record tr ~time:now (Trace.Custody_evicted { node; flow; idx }))
        wiped
    | Some _ | None -> ());
    (match recorder with
    | Some rc when wiped <> [] ->
      dump rc ~time:now
        (Printf.sprintf "custody wiped: node %d lost %d chunks" node
           (List.length wiped))
    | Some _ | None -> ())

let tick t ~finished =
  match t with
  | None -> ()
  | Some { eng; check; watchdog; _ } ->
    (match check with
    | Some chk -> Check.Invariant.probe chk ~time:(Sim.Engine.now eng)
    | None -> ());
    (* the watchdog needs a heartbeat: a total stall delivers nothing,
       so without ticks there would be no edge to detect it on *)
    (match watchdog with
    | Some wd when not finished ->
      Obs.Watchdog.tick wd ~time:(Sim.Engine.now eng)
    | Some _ | None -> ())

let finish t ~quiescent ~disruptions =
  match t with
  | None -> ()
  | Some { eng; net; routers; obs; check; recorder; conservation; _ } ->
    (* harvest the profiler before anything else touches the engine *)
    (match obs with
    | Some o when Sim.Engine.profiling eng ->
      Sim.Engine.profile_stop eng;
      Obs.Observer.set_profile_rows o (Sim.Engine.profile_rows eng)
    | _ -> ());
    (* a disruption with no delivery after it means recovery never
       happened: capture the tail of the run for post-mortem *)
    (match recorder with
    | Some rc when disruptions > 0 ->
      dump rc ~time:(Sim.Engine.now eng)
        (Printf.sprintf "%d disruption(s) with no subsequent delivery"
           disruptions)
    | Some _ | None -> ());
    (match check with
    | Some chk -> Check.Invariant.probe chk ~time:(Sim.Engine.now eng)
    | None -> ());
    match conservation with
    | Some cons ->
      let sum f = Array.fold_left (fun acc r -> acc + f r) 0 routers in
      Check.Invariant.Conservation.finish cons ~time:(Sim.Engine.now eng)
        ~quiescent ~in_custody:(sum (fun r -> fst (Router.custody_ledger r)))
        ~wire_losses:(Net.total_wire_losses net)
    | None -> ()

let collapse = function
  | Some { watchdog = Some wd; _ } ->
    (Obs.Watchdog.episodes wd, Obs.Watchdog.recovery_times wd)
  | Some _ | None -> (0, [])
