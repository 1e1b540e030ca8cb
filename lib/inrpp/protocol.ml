type flow_spec = Wiring.flow_spec = {
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
  if not (s.start >= 0.) then invalid_arg (who ^ ": negative or NaN start");
  (* [Chunk_key.pack] orders a content key only in [0, 2^31) *)
  match s.content with
  | Some c when c < 0 || c > 0x7fff_ffff ->
    invalid_arg (who ^ ": content outside [0, 2^31)")
  | Some _ | None -> ()

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
}

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

(* The result: per-flow outcomes in flow-id order and the counters
   summed over the routers. *)
let collect (w : Wiring.t) receivers =
  let { Wiring.cfg; eng; net; _ } = w in
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
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 w.routers in
  let collapse_episodes, recoveries = Instrumentation.collapse w.ins in
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
    mean_utilisation = Chunksim.Net.mean_utilisation net;
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
    collapse_episodes;
    collapse_recovery_time =
      (match recoveries with
      | [] -> None
      | ts ->
        Some (List.fold_left ( +. ) 0. ts /. float_of_int (List.length ts)));
    flow_entries_live = sum Router.flow_entries_live;
    flow_entries_peak = sum Router.flow_entries_peak;
    flow_entries_recycled = sum Router.flow_entries_recycled;
    flow_table_bytes = sum Router.flow_table_bytes;
  }

(* Run stages: [Wiring.wire] builds the run's state (creating its
   [Instrumentation]), [Wiring.attach_faults] installs the fault
   driver, [Endpoints.attach] the senders, receivers and dispatch, and
   [Instrumentation.start] the metrics and sampler.  Stage order is
   event order: seqs are taken at schedule time, so the fault events
   come before the sampler start, the tick, the drain and the flow
   starts. *)
let run ?(cfg = Config.default) ?(horizon = 60.) ?trace ?loss_rate ?obs
    ?check ?faults ?workload ?(overload = Overload.Config.Off) g specs =
  (match Config.validate cfg with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Protocol.run: " ^ msg));
  let specs = expand workload g specs in
  if Array.length specs = 0 then invalid_arg "Protocol.run: no flows";
  if horizon <= 0. then invalid_arg "Protocol.run: horizon <= 0";
  Array.iter (check_spec "Protocol.run") specs;
  let w =
    Wiring.wire ~cfg ~horizon ~trace ~loss_rate ~obs ~check ~overload g specs
  in
  let driver = Wiring.attach_faults w faults in
  let senders, receivers =
    Endpoints.attach w ~faulted:(Option.is_some driver)
  in
  let { Wiring.eng; ins; registry; routers; _ } = w in
  Instrumentation.start ins ~link_state:w.link_state ~driver ~senders
    ~receivers
    ~src:(fun f -> specs.(f).src)
    ~dst:(fun f -> specs.(f).dst)
    ~finished:(fun () -> Wiring.all_done w);
  (* periodic estimator ticks and custody drains; track custody peak
     over the routers holding custody (every other one holds 0) *)
  let note_peak r =
    let occ = Chunksim.Cache.custody_occupancy (Router.cache r) in
    if occ > w.peak_custody then w.peak_custody <- occ
  in
  Sim.Engine.schedule_periodic eng ~interval:Config.ti (fun () ->
      Instrumentation.mark ins Tick;
      Router.tick_sweep registry routers;
      Router.iter_custody registry routers note_peak;
      Instrumentation.tick ins ~finished:(Wiring.all_done w);
      not (Wiring.all_done w));
  Sim.Engine.schedule_periodic eng ~interval:(Config.ti /. 4.) (fun () ->
      Instrumentation.mark ins Drain;
      Router.drain_sweep registry routers;
      not (Wiring.all_done w));
  Array.iteri
    (fun flow r ->
      ignore
        (Sim.Engine.schedule eng ~delay:specs.(flow).start (fun () ->
             Instrumentation.mark ins Flow_start;
             Receiver.start r)))
    receivers;
  Sim.Engine.run ~until:horizon eng;
  Instrumentation.finish ins ~quiescent:(Wiring.all_done w)
    ~disruptions:(List.length w.pending_disruptions);
  collect w receivers

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "%d/%d flows done in %.3gs; goodput=%a util=%.3f detoured=%d custody=%d \
     (peak %a) bp=%d/%d drops=%d transitions=%d"
    r.completed (Array.length r.flows) r.sim_time Sim.Units.pp_rate r.goodput
    r.mean_utilisation r.detoured r.custody_stored Sim.Units.pp_size
    r.peak_custody_bits r.bp_engages r.bp_releases r.total_drops
    r.phase_transitions
