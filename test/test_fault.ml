(* Tests for the fault stack: schedules, interface outage mechanics,
   the link-state view, protocol-level recovery (detour failover,
   custody evacuation, crash wipes, bounded request backoff), and the
   seeded fault/loss sweeps the CI matrix runs.

   Layout note: the "fault-matrix" suite at the bottom is the tier-1
   CI smoke job — three named schedules crossed with two topologies at
   small horizons. *)

module P = Chunksim.Packet
module S = Fault.Schedule

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Schedule *)

let ev at event = { S.at; event }

let test_schedule_empty_and_sort () =
  Alcotest.(check bool) "empty" true (S.is_empty S.empty);
  Alcotest.(check int) "empty length" 0 (List.length (S.events S.empty));
  let sched =
    S.of_list
      [
        ev 2.0 (S.Link_up { link = 0 });
        ev 0.5 (S.Link_down { link = 0; policy = `Hold_queued });
        ev 1.0 (S.Control_loss_burst { duration = 0.1; loss = 0.5 });
      ]
  in
  Alcotest.(check bool) "non-empty" false (S.is_empty sched);
  Alcotest.(check (list (float 0.)))
    "time-sorted" [ 0.5; 1.0; 2.0 ]
    (List.map (fun t -> t.S.at) (S.events sched));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Schedule.of_list: negative event time")
    (fun () -> ignore (S.of_list [ ev (-1.) (S.Link_up { link = 0 }) ]))

let test_schedule_random_deterministic () =
  let g = Topology.Builders.dumbbell 2 in
  let make seed =
    S.random ~seed ~link_outages:3 ~crashes:1 ~bursts:1 ~horizon:20. g
  in
  let a = make 42L and b = make 42L and c = make 43L in
  Alcotest.(check bool) "same seed, same events" true
    (S.events a = S.events b);
  Alcotest.(check int64) "seed recorded" 42L (S.seed a);
  Alcotest.(check bool) "different seed, different schedule" true
    (S.events a <> S.events c);
  (* every outage resolves strictly before the horizon *)
  List.iter
    (fun t -> Alcotest.(check bool) "within horizon" true (t.S.at < 20.))
    (S.events a)

(* ------------------------------------------------------------------ *)
(* Link_state *)

let test_link_state () =
  let g = Topology.Builders.line 3 in
  let ls = Topology.Link_state.create g in
  let up () =
    List.filter (Topology.Link_state.is_up ls)
      (List.init (Topology.Graph.link_count g) Fun.id)
  in
  Alcotest.(check (list int)) "all up at start" [ 0; 1; 2; 3 ] (up ());
  Topology.Link_state.set ls 1 ~up:false;
  Topology.Link_state.set ls 1 ~up:false;
  Alcotest.(check (list int)) "only link 1 down" [ 0; 2; 3 ] (up ());
  Topology.Link_state.set ls 1 ~up:true;
  Alcotest.(check (list int)) "back up" [ 0; 1; 2; 3 ] (up ());
  Alcotest.check_raises "range check"
    (Invalid_argument "Link_state: link id 99 out of range") (fun () ->
      ignore (Topology.Link_state.is_up ls 99))

(* Two flips of one link at one instant fire in schedule order: down
   then up leaves the link up, up then down leaves it down, and the
   driver counts both flips either way. *)
let test_same_instant_flips () =
  let run events =
    let eng = Sim.Engine.create () in
    let g = Topology.Builders.line 2 in
    let ls = Topology.Link_state.create g in
    let flips = ref [] in
    let drv =
      Fault.Driver.install ~link_state:ls
        ~on_link_flip:(fun _ ~up -> flips := up :: !flips)
        (Chunksim.Net.create eng g)
        (S.of_list (List.map (ev 1.) events))
    in
    Sim.Engine.run eng;
    ( Topology.Link_state.is_up ls 0,
      List.rev !flips,
      Fault.Driver.link_downs drv,
      Fault.Driver.link_ups drv )
  in
  let down = S.Link_down { link = 0; policy = `Hold_queued }
  and up = S.Link_up { link = 0 } in
  let check what (is_up, flips, downs, ups) want =
    Alcotest.(check bool) (what ^ ": link state") want is_up;
    Alcotest.(check (list bool)) (what ^ ": flip order") [ not want; want ] flips;
    Alcotest.(check (pair int int)) (what ^ ": downs, ups") (1, 1) (downs, ups)
  in
  check "down then up" (run [ down; up ]) true;
  check "up then down" (run [ up; down ]) false

(* ------------------------------------------------------------------ *)
(* Iface outage mechanics *)

let outage_iface () =
  let eng = Sim.Engine.create () in
  let g = Support.Fixtures.of_edges ~capacity:1e6 ~delay:1e-3 2 [ (0, 1) ] in
  let l = Option.get (Topology.Graph.find_link g 0 1) in
  let delivered = ref 0 in
  let iface =
    Chunksim.Iface.create eng l ~deliver:(fun _ -> incr delivered)
  in
  (eng, iface, delivered)

(* 3 × 80 kbit packets at 1 Mbps: tx 0.08 s each.  Down at 0.01 s the
   first packet is on the wire (destroyed); the other two are queued. *)
let send3 eng iface =
  ignore @@ Sim.Engine.schedule eng ~delay:0. (fun () ->
      for i = 0 to 2 do
        ignore (Chunksim.Iface.send iface (P.data ~flow:0 ~idx:i ~born:0. 8e4))
      done)

let test_iface_down_drop_queued () =
  let eng, iface, delivered = outage_iface () in
  send3 eng iface;
  let refused = ref `Queued in
  ignore @@ Sim.Engine.schedule eng ~delay:0.01 (fun () ->
      Chunksim.Iface.set_down iface;
      refused := Chunksim.Iface.send iface (P.data ~flow:0 ~idx:9 ~born:0. 8e4));
  Sim.Engine.run eng;
  Alcotest.(check bool) "down refuses admission" true (!refused = `Dropped);
  Alcotest.(check int) "nothing delivered" 0 !delivered;
  (* wire kill + two flushed from the queue *)
  Alcotest.(check int) "fault drops" 3 (Chunksim.Iface.fault_drops iface);
  Alcotest.(check bool) "still down" true
    (Chunksim.Iface.send iface (P.data ~flow:0 ~idx:10 ~born:0. 8e4) = `Dropped)

let test_iface_down_hold_queued_then_up () =
  let eng, iface, delivered = outage_iface () in
  let tapped = ref 0 in
  Chunksim.Iface.set_fault_tap iface (fun _ -> incr tapped);
  send3 eng iface;
  ignore @@ Sim.Engine.schedule eng ~delay:0.01 (fun () ->
      Chunksim.Iface.set_down ~policy:`Hold_queued iface);
  ignore @@ Sim.Engine.schedule eng ~delay:0.5 (fun () ->
      Chunksim.Iface.set_up iface;
      Chunksim.Iface.set_up iface (* idempotent *));
  Sim.Engine.run eng;
  Alcotest.(check int) "held packets delivered after set_up" 2 !delivered;
  Alcotest.(check int) "only the wire packet died" 1
    (Chunksim.Iface.fault_drops iface);
  Alcotest.(check int) "fault tap saw it" 1 !tapped;
  (* resumed transmission starts at 0.5: two tx + prop *)
  check_close "resume timing" 1e-9 0.661 (Sim.Engine.now eng)

(* ------------------------------------------------------------------ *)
(* Protocol-level recovery *)

let flow = Inrpp.Protocol.flow_spec

(* The probe's diamond: primary 1->3 bottleneck with an equal-rate
   detour 1->2->3. *)
let diamond ?(primary = 10e6) () =
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "sender" in
  let n1 = Topology.Graph.Builder.add_node b "fork" in
  let n2 = Topology.Graph.Builder.add_node b "via" in
  let n3 = Topology.Graph.Builder.add_node b "receiver" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:primary ~delay:2e-3 n1 n3;
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:3e-3 n1 n2;
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:3e-3 n2 n3;
  Topology.Graph.Builder.build b

let link_id g a z = (Option.get (Topology.Graph.find_link g a z)).Topology.Link.id

let both_directions g a z policy at ~up =
  [
    ev at (S.Link_down { link = link_id g a z; policy });
    ev at (S.Link_down { link = link_id g z a; policy });
    ev up (S.Link_up { link = link_id g a z });
    ev up (S.Link_up { link = link_id g z a });
  ]

(* No-fault baseline for the graph, reused by several cases. *)
let run_clean ?cfg g specs = Inrpp.Protocol.run ?cfg ~horizon:60. g specs

let test_empty_schedule_bit_identity () =
  let g = Topology.Builders.fig3 () in
  let specs = [ flow ~src:0 ~dst:3 120 ] in
  let a = run_clean g specs in
  let b = Inrpp.Protocol.run ~horizon:60. ~faults:S.empty g specs in
  Alcotest.(check int) "engine events" a.Inrpp.Protocol.engine_events
    b.Inrpp.Protocol.engine_events;
  Alcotest.(check (option (float 0.)))
    "fct" a.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct
    b.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct;
  Alcotest.(check int) "drops" a.Inrpp.Protocol.total_drops
    b.Inrpp.Protocol.total_drops;
  Alcotest.(check int) "forwarded" a.Inrpp.Protocol.forwarded_data
    b.Inrpp.Protocol.forwarded_data;
  Alcotest.(check int) "requests" a.Inrpp.Protocol.flows.(0).requests_sent
    b.Inrpp.Protocol.flows.(0).requests_sent;
  Alcotest.(check int) "no failovers" 0 b.Inrpp.Protocol.failovers;
  Alcotest.(check bool) "no recovery time" true
    (b.Inrpp.Protocol.recovery_time = None)

let test_failover_onto_detour () =
  let g = diamond () in
  let specs = [ flow ~src:0 ~dst:3 400 ] in
  let clean = run_clean g specs in
  let clean_fct = Option.get clean.Inrpp.Protocol.flows.(0).fct in
  (* primary 1->3 goes down mid-transfer and never comes back *)
  let faults =
    S.of_list
      [
        ev 0.1 (S.Link_down { link = link_id g 1 3; policy = `Drop_queued });
        ev 0.1 (S.Link_down { link = link_id g 3 1; policy = `Drop_queued });
      ]
  in
  let check = Check.Invariant.create () in
  let r = Inrpp.Protocol.run ~horizon:60. ~faults ~check g specs in
  Alcotest.(check int) "completes over the detour" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check bool)
    (Printf.sprintf "failovers > 0 (%d)" r.Inrpp.Protocol.failovers)
    true
    (r.Inrpp.Protocol.failovers > 0);
  Alcotest.(check bool) "recovery time measured" true
    (r.Inrpp.Protocol.recovery_time <> None);
  Alcotest.(check bool)
    (Printf.sprintf "fct sane (%.3f vs clean %.3f)"
       (Option.get r.Inrpp.Protocol.flows.(0).fct)
       clean_fct)
    true
    (Option.get r.Inrpp.Protocol.flows.(0).fct >= clean_fct *. 0.9);
  if not (Check.Invariant.ok check) then
    Alcotest.fail (Check.Invariant.report check)

let test_outage_backpressure_and_recovery () =
  (* line graph: no detour exists, so a mid-path outage must engage
     back-pressure / custody and the flow finishes only after the link
     heals *)
  let g = Topology.Builders.line 3 ~capacity:10e6 ~delay:2e-3 in
  let specs = [ flow ~src:0 ~dst:2 200 ] in
  let faults = S.of_list (both_directions g 1 2 `Drop_queued 0.2 ~up:3.0) in
  let check = Check.Invariant.create () in
  let r = Inrpp.Protocol.run ~horizon:60. ~faults ~check g specs in
  Alcotest.(check int) "completes after heal" 1 r.Inrpp.Protocol.completed;
  let fct = Option.get r.Inrpp.Protocol.flows.(0).fct in
  Alcotest.(check bool)
    (Printf.sprintf "fct after the outage window (%.3f)" fct)
    true (fct > 3.0);
  (match r.Inrpp.Protocol.recovery_time with
  | None -> Alcotest.fail "expected a recovery-time measurement"
  | Some tr ->
    Alcotest.(check bool)
      (Printf.sprintf "recovery within the outage+heal window (%.3f)" tr)
      true
      (tr > 0. && tr < 10.));
  if not (Check.Invariant.ok check) then
    Alcotest.fail (Check.Invariant.report check)

let test_crash_wipes_custody () =
  (* 5x bandwidth drop with a small store: the bottleneck router holds
     custody when it crashes, so Wipe_custody must surface as
     chunks_lost_in_custody and be attributed (not reported as a
     conservation leak) *)
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "sender" in
  let n1 = Topology.Graph.Builder.add_node b "bottleneck" in
  let n2 = Topology.Graph.Builder.add_node b "receiver" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  let g = Topology.Graph.Builder.build b in
  let cfg =
    {
      Inrpp.Config.default with
      Inrpp.Config.anticipation = 512;
      cache_bits = 30. *. Inrpp.Config.default.Inrpp.Config.chunk_bits;
      timeout_backoff = 2.;
    }
  in
  let faults =
    S.of_list
      [
        ev 0.5 (S.Node_crash { node = n1; policy = S.Wipe_custody });
        ev 2.0 (S.Node_restart { node = n1 });
      ]
  in
  let check = Check.Invariant.create () in
  let r =
    Inrpp.Protocol.run ~cfg ~horizon:120. ~faults ~check g
      [ flow ~src:n0 ~dst:n2 150 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "custody wiped (%d)" r.Inrpp.Protocol.chunks_lost_in_custody)
    true
    (r.Inrpp.Protocol.chunks_lost_in_custody > 0);
  Alcotest.(check int) "still completes" 1 r.Inrpp.Protocol.completed;
  if not (Check.Invariant.ok check) then
    Alcotest.fail (Check.Invariant.report check)

(* A crash marks the dead node's links down without a link flip at
   its neighbours.  The fork's cached detour candidates must still lose
   the dead node, so no chunk is deflected into it while it is down:
   the probe's detour scenario with the via node crashed
   mid-transfer. *)
let test_crash_refreshes_neighbour_detours () =
  let g = diamond ~primary:5e6 () in
  let cfg = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 } in
  let faults =
    S.of_list
      [
        ev 1.2 (S.Node_crash { node = 2; policy = S.Wipe_custody });
        ev 2.35 (S.Node_restart { node = 2 });
      ]
  in
  let trace = Chunksim.Trace.create () in
  let down = Hashtbl.create 4 and detoured = ref 0 and into_dead = ref 0 in
  Chunksim.Trace.on_record trace (fun _ e ->
      match e with
      | Chunksim.Trace.Node_fault { node; up } ->
        if up then Hashtbl.remove down node else Hashtbl.replace down node ()
      | Chunksim.Trace.Detoured { via; _ } ->
        incr detoured;
        if Hashtbl.mem down via then incr into_dead
      | _ -> ());
  let r =
    Inrpp.Protocol.run ~cfg ~horizon:60. ~faults ~trace g
      [ flow ~src:0 ~dst:3 200 ]
  in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check bool) "detours taken" true (!detoured > 0);
  Alcotest.(check int)
    (Printf.sprintf "detours into the dead node (of %d)" !detoured)
    0 !into_dead

let test_crash_preserve_custody () =
  let g = Topology.Builders.line 3 ~capacity:10e6 ~delay:2e-3 in
  let faults =
    S.of_list
      [
        ev 0.05 (S.Node_crash { node = 1; policy = S.Preserve_custody });
        ev 1.0 (S.Node_restart { node = 1 });
      ]
  in
  let r =
    Inrpp.Protocol.run ~horizon:60. ~faults g [ flow ~src:0 ~dst:2 100 ]
  in
  Alcotest.(check int) "nothing lost from custody" 0
    r.Inrpp.Protocol.chunks_lost_in_custody;
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed

(* Satellite regression: evacuation-in-flight chunks stay charged
   against the store budget.  The drain is peek-then-commit — between
   the peek and the successful handoff the chunk still counts, so a
   concurrent arrival cannot be admitted into the transient gap the
   old take-then-re-put opened (which could also lose the chunk
   outright if the re-put found the store full). *)
let test_evacuation_budget_charged () =
  let chunk = 80_000. in
  let c = Chunksim.Cache.create ~capacity:(2. *. chunk) () in
  Alcotest.(check bool) "fill 1" true
    (Chunksim.Cache.put_custody c ~flow:0 ~idx:0 ~bits:chunk = `Stored);
  Alcotest.(check bool) "fill 2" true
    (Chunksim.Cache.put_custody c ~flow:1 ~idx:0 ~bits:chunk = `Stored);
  (* evacuation of flow 0 begins: peek, handoff in flight *)
  Alcotest.(check int) "expected flow 0's oldest chunk" 0
    (Chunksim.Cache.peek_custody c ~flow:0);
  (* the in-flight chunk still holds its budget: nothing fits *)
  Alcotest.(check bool) "no admission into the transient gap" true
    (Chunksim.Cache.put_custody c ~flow:2 ~idx:0 ~bits:chunk = `Full);
  (* handoff failed (link went down mid-drain): nothing lost, nothing
     leaked — the chunk is still there and still charged *)
  Alcotest.(check int) "failed handoff must leave custody untouched" 0
    (Chunksim.Cache.peek_custody c ~flow:0);
  check_close "occupancy unchanged" 0. (2. *. chunk)
    (Chunksim.Cache.custody_occupancy c);
  (* handoff succeeded on retry: commit releases, the next admit fits *)
  Chunksim.Cache.commit_custody c ~flow:0;
  Alcotest.(check bool) "admitted after commit" true
    (Chunksim.Cache.put_custody c ~flow:2 ~idx:0 ~bits:chunk = `Stored)

(* The protocol-level face of the same regression: a primary that
   flaps three times mid-transfer forces repeated evacuation attempts
   against a small store, some of which race the outages and fail.
   Every checker stays green and the flow completes — the old drain
   could leak a chunk (conservation) or stall the flow (lost chunk
   never re-requested from custody). *)
let test_evacuation_under_flapping_primary () =
  let g = diamond () in
  let specs = [ flow ~src:0 ~dst:3 300 ] in
  let cfg =
    {
      Inrpp.Config.default with
      Inrpp.Config.cache_bits =
        20. *. Inrpp.Config.default.Inrpp.Config.chunk_bits;
    }
  in
  let faults =
    S.of_list
      (List.concat_map
         (fun (down, up) -> both_directions g 1 3 `Drop_queued down ~up)
         [ (0.1, 0.4); (0.6, 0.9); (1.1, 1.4) ])
  in
  let check = Check.Invariant.create () in
  let r = Inrpp.Protocol.run ~cfg ~horizon:60. ~faults ~check g specs in
  Alcotest.(check int) "completes across the flaps" 1
    r.Inrpp.Protocol.completed;
  if not (Check.Invariant.ok check) then
    Alcotest.fail (Check.Invariant.report check)

let test_replay_deterministic () =
  let g = Topology.Builders.fig3 () in
  let faults =
    S.random ~seed:21L ~link_outages:2 ~crashes:1 ~horizon:5. g
  in
  let specs = [ flow ~src:0 ~dst:3 200; flow ~src:1 ~dst:2 100 ] in
  let once () = Inrpp.Protocol.run ~horizon:60. ~faults g specs in
  let a = once () and b = once () in
  Alcotest.(check int) "engine events" a.Inrpp.Protocol.engine_events
    b.Inrpp.Protocol.engine_events;
  Alcotest.(check int) "failovers" a.Inrpp.Protocol.failovers
    b.Inrpp.Protocol.failovers;
  Alcotest.(check int) "custody losses" a.Inrpp.Protocol.chunks_lost_in_custody
    b.Inrpp.Protocol.chunks_lost_in_custody;
  Alcotest.(check (option (float 0.)))
    "recovery time" a.Inrpp.Protocol.recovery_time
    b.Inrpp.Protocol.recovery_time;
  Array.iteri
    (fun i fa ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "fct %d" i) fa.Inrpp.Protocol.fct
        b.Inrpp.Protocol.flows.(i).Inrpp.Protocol.fct)
    a.Inrpp.Protocol.flows

(* ------------------------------------------------------------------ *)
(* Bounded request backoff (satellite: exponential backoff knob) *)

let test_backoff_bounds_requests_during_partition () =
  let g = Topology.Builders.line 3 ~capacity:10e6 ~delay:2e-3 in
  let specs = [ flow ~src:0 ~dst:2 40 ] in
  (* partition the receiver side for ~30 s, then heal *)
  let faults = S.of_list (both_directions g 1 2 `Drop_queued 0.1 ~up:30.) in
  let run backoff =
    let cfg = { Inrpp.Config.default with Inrpp.Config.timeout_backoff = backoff } in
    Inrpp.Protocol.run ~cfg ~horizon:60. ~faults g specs
  in
  let flat = run 1. and backed = run 2. in
  let clean = Inrpp.Protocol.run ~horizon:60. g specs in
  Alcotest.(check int) "flat completes" 1 flat.Inrpp.Protocol.completed;
  Alcotest.(check int) "backoff completes" 1 backed.Inrpp.Protocol.completed;
  let rf = flat.Inrpp.Protocol.flows.(0).requests_sent in
  let rb = backed.Inrpp.Protocol.flows.(0).requests_sent in
  Alcotest.(check bool)
    (Printf.sprintf "backoff sends fewer requests (%d < %d)" rb rf)
    true (rb < rf);
  (* derived bound: the fault-free request load, plus the doublings up
     to the cap, plus one request per capped interval across the
     partition, plus slack for the post-heal refetch *)
  let cap =
    Inrpp.Config.timeout_backoff_cap *. Inrpp.Config.request_timeout
  in
  let doublings =
    int_of_float (ceil (log Inrpp.Config.timeout_backoff_cap /. log 2.))
  in
  let partition = 30. in
  let bound =
    clean.Inrpp.Protocol.flows.(0).requests_sent
    + doublings
    + int_of_float (ceil (partition /. cap))
    + 10
  in
  Alcotest.(check bool)
    (Printf.sprintf "requests bounded (%d <= %d)" rb bound)
    true (rb <= bound)

let test_control_burst_recovery () =
  (* a total request blackout for 1 s delays but does not kill the
     transfer: timers re-request once the burst lifts *)
  let g = Topology.Builders.line 3 ~capacity:10e6 ~delay:2e-3 in
  let faults =
    S.of_list ~seed:5L
      [ ev 0.1 (S.Control_loss_burst { duration = 1.0; loss = 1.0 }) ]
  in
  let cfg = { Inrpp.Config.default with Inrpp.Config.timeout_backoff = 2. } in
  let r =
    Inrpp.Protocol.run ~cfg ~horizon:60. ~faults g [ flow ~src:0 ~dst:2 100 ]
  in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed

(* ------------------------------------------------------------------ *)
(* Seeded sweeps *)

let dumbbell_specs n chunks =
  List.init n (fun i -> flow ~src:(2 + i) ~dst:(2 + n + i) chunks)

(* Satellite: loss-recovery sweep.  All flows complete under 1-5%
   random wire loss; duplicates and request overhead stay within a
   bound derived from the loss-free baseline. *)
let test_loss_recovery_sweep () =
  let g = Topology.Builders.dumbbell 3 in
  let specs = dumbbell_specs 3 60 in
  let cfg = { Inrpp.Config.default with Inrpp.Config.timeout_backoff = 2. } in
  let run ?loss_rate () = Inrpp.Protocol.run ~cfg ~horizon:120. ?loss_rate g specs in
  let base = run () in
  let base_requests =
    Array.fold_left
      (fun acc f -> acc + f.Inrpp.Protocol.requests_sent)
      0 base.Inrpp.Protocol.flows
  in
  List.iter
    (fun loss ->
      let r = run ~loss_rate:loss () in
      Alcotest.(check int)
        (Printf.sprintf "all complete at %.0f%% loss" (100. *. loss))
        3 r.Inrpp.Protocol.completed;
      let requests, dups, chunks =
        Array.fold_left
          (fun (rq, d, c) f ->
            ( rq + f.Inrpp.Protocol.requests_sent,
              d + f.Inrpp.Protocol.duplicates,
              c + f.Inrpp.Protocol.spec.Inrpp.Protocol.chunks ))
          (0, 0, 0) r.Inrpp.Protocol.flows
      in
      (* each lost data or request packet costs at most one timeout
         re-request; re-requests can refetch a window, so allow a
         window of duplicates per retransmission round *)
      let slack = int_of_float (ceil (float_of_int chunks *. loss *. 8.)) in
      Alcotest.(check bool)
        (Printf.sprintf "requests bounded at %.0f%% (%d <= %d)" (100. *. loss)
           requests
           (base_requests + slack + 30))
        true
        (requests <= base_requests + slack + 30);
      Alcotest.(check bool)
        (Printf.sprintf "duplicates bounded at %.0f%% (%d)" (100. *. loss) dups)
        true
        (dups <= slack + 30))
    [ 0.01; 0.02; 0.05 ]

(* Fault-aware conservation: random schedules across many seeds, every
   checker on.  Custody wipes and wire kills must be attributed, never
   reported as leaks. *)
let test_conservation_random_schedules () =
  let g = Topology.Builders.dumbbell 2 in
  let specs = dumbbell_specs 2 30 in
  for seed = 1 to 50 do
    let faults =
      S.random ~seed:(Int64.of_int seed) ~link_outages:2 ~crashes:1
        ~horizon:8. g
    in
    let check = Check.Invariant.create () in
    let r = Inrpp.Protocol.run ~horizon:40. ~faults ~check g specs in
    ignore (r : Inrpp.Protocol.result);
    if not (Check.Invariant.ok check) then
      Alcotest.failf "seed %d: %s" seed (Check.Invariant.report check)
  done

(* A custody wipe mid-run must trigger the flight recorder: the dump
   file gets a header naming the wipe plus the ring of events leading
   up to it.  A clean replay of the same scenario (no faults) with the
   same recorder wiring must leave no file at all — the recorder opens
   its output lazily, on the first dump. *)
let test_flight_recorder_on_custody_wipe () =
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "sender" in
  let n1 = Topology.Graph.Builder.add_node b "bottleneck" in
  let n2 = Topology.Graph.Builder.add_node b "receiver" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  let g = Topology.Graph.Builder.build b in
  let cfg =
    {
      Inrpp.Config.default with
      Inrpp.Config.anticipation = 512;
      cache_bits = 30. *. Inrpp.Config.default.Inrpp.Config.chunk_bits;
      timeout_backoff = 2.;
    }
  in
  let specs = [ flow ~src:n0 ~dst:n2 150 ] in
  let run ~faults path =
    let rc = Obs.Recorder.create ~path () in
    let o = Obs.Observer.create ~recorder:rc () in
    let r = Inrpp.Protocol.run ~cfg ~horizon:120. ~faults ~obs:o g specs in
    Obs.Observer.close o;
    r
  in
  let path = Filename.temp_file "flight_fault" ".ndjson" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* clean run first: recorder wired, nothing to dump *)
      let clean = run ~faults:S.empty path in
      Alcotest.(check int) "clean run completes" 1
        clean.Inrpp.Protocol.completed;
      Alcotest.(check bool) "clean run leaves no dump file" false
        (Sys.file_exists path);
      let faults =
        S.of_list
          [
            ev 0.5 (S.Node_crash { node = n1; policy = S.Wipe_custody });
            ev 2.0 (S.Node_restart { node = n1 });
          ]
      in
      let r = run ~faults path in
      Alcotest.(check bool) "custody wiped" true
        (r.Inrpp.Protocol.chunks_lost_in_custody > 0);
      Alcotest.(check bool) "wipe dumped the flight recorder" true
        (Sys.file_exists path);
      let ic = open_in path in
      let header = input_line ic in
      let events = ref 0 in
      (try
         while true do
           let line = input_line ic in
           match
             Result.bind (Obs.Json.parse line) Obs.Trace_codec.of_json
           with
           | Ok _ -> incr events
           | Error e -> Alcotest.failf "undecodable dump line %S: %s" line e
         done
       with End_of_file -> ());
      close_in ic;
      match Obs.Json.parse header with
      | Error e -> Alcotest.failf "dump header: %s" e
      | Ok j ->
        Alcotest.(check (option string)) "header type" (Some "flight_dump")
          (Option.bind (Obs.Json.member "type" j) Obs.Json.to_str);
        (match Option.bind (Obs.Json.member "reason" j) Obs.Json.to_str with
        | Some reason ->
          Alcotest.(check bool)
            (Printf.sprintf "reason names the wipe (%S)" reason)
            true
            (String.length reason >= 13
            && String.sub reason 0 13 = "custody wiped")
        | None -> Alcotest.fail "dump header without a reason");
        Alcotest.(check bool) "ring contents follow the header" true
          (!events > 0))

(* ------------------------------------------------------------------ *)
(* Flow-table teardown: entries for flows that finish during or after
   an outage must be released and their slots recycled when
   [cfg.flow_teardown] is on — the regression here was entries
   surviving the run forever (never recycled) when the flow's end
   raced an outage.  Default-off keeps the historical behaviour:
   entries persist to the end of the run. *)

let test_teardown_recycles_after_outage () =
  let g = Topology.Builders.line 3 ~capacity:10e6 ~delay:2e-3 in
  let specs = [ flow ~src:0 ~dst:2 150 ] in
  (* mid-path outage while the flow is in flight; it completes after
     the heal, so teardown runs on a table that lived through the
     outage (including any reconvergence installs) *)
  let faults = S.of_list (both_directions g 1 2 `Drop_queued 0.2 ~up:1.0) in
  let run cfg = Inrpp.Protocol.run ~cfg ~horizon:60. ~faults g specs in
  let kept = run Inrpp.Config.default in
  Alcotest.(check int) "completes (default)" 1 kept.Inrpp.Protocol.completed;
  Alcotest.(check bool) "default keeps entries to end of run" true
    (kept.Inrpp.Protocol.flow_entries_live > 0);
  let torn =
    run { Inrpp.Config.default with Inrpp.Config.flow_teardown = true }
  in
  Alcotest.(check int) "completes (teardown)" 1 torn.Inrpp.Protocol.completed;
  Alcotest.(check int) "live entries back to 0" 0
    torn.Inrpp.Protocol.flow_entries_live;
  Alcotest.(check bool) "slots recycled" true
    (torn.Inrpp.Protocol.flow_entries_recycled > 0);
  Alcotest.(check int) "peak unchanged by teardown"
    kept.Inrpp.Protocol.flow_entries_peak torn.Inrpp.Protocol.flow_entries_peak

let test_teardown_recycles_after_crash () =
  (* node crash on the path: recovery reinstalls state; the completed
     flow must still tear down to zero live entries everywhere *)
  let g = diamond () in
  let specs = [ flow ~src:0 ~dst:3 150 ] in
  let faults =
    S.of_list
      [
        ev 0.2 (S.Node_crash { node = 1; policy = S.Preserve_custody });
        ev 1.0 (S.Node_restart { node = 1 });
      ]
  in
  let torn =
    Inrpp.Protocol.run
      ~cfg:{ Inrpp.Config.default with Inrpp.Config.flow_teardown = true }
      ~horizon:60. ~faults g specs
  in
  Alcotest.(check int) "completes" 1 torn.Inrpp.Protocol.completed;
  Alcotest.(check int) "live entries back to 0" 0
    torn.Inrpp.Protocol.flow_entries_live;
  Alcotest.(check bool) "slots recycled" true
    (torn.Inrpp.Protocol.flow_entries_recycled > 0)

(* ------------------------------------------------------------------ *)
(* CI fault matrix: 3 schedules x 2 topologies, small horizons *)

let matrix_schedules g =
  [
    ("outage", S.random ~seed:11L ~link_outages:2 ~horizon:4. g);
    ("crash", S.random ~seed:12L ~link_outages:0 ~crashes:1 ~horizon:4. g);
    ( "burst",
      S.of_list ~seed:13L
        [ ev 0.3 (S.Control_loss_burst { duration = 1.0; loss = 0.9 }) ] );
  ]

let matrix_topologies () =
  [
    ("dumbbell", Topology.Builders.dumbbell 2, dumbbell_specs 2 40);
    ("fig3", Topology.Builders.fig3 (), [ flow ~src:0 ~dst:3 80 ]);
  ]

let test_fault_matrix () =
  List.iter
    (fun (tname, g, specs) ->
      List.iter
        (fun (sname, faults) ->
          let check = Check.Invariant.create () in
          let r = Inrpp.Protocol.run ~horizon:30. ~faults ~check g specs in
          if not (Check.Invariant.ok check) then
            Alcotest.failf "%s/%s: %s" tname sname
              (Check.Invariant.report check);
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: all flows complete" tname sname)
            (List.length specs) r.Inrpp.Protocol.completed)
        (matrix_schedules g))
    (matrix_topologies ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fault"
    [
      ( "schedule",
        [
          Alcotest.test_case "empty and sort" `Quick test_schedule_empty_and_sort;
          Alcotest.test_case "random is seed-deterministic" `Quick
            test_schedule_random_deterministic;
        ] );
      ( "link_state",
        [
          Alcotest.test_case "flips and subscribers" `Quick test_link_state;
          Alcotest.test_case "same-instant flips in order" `Quick
            test_same_instant_flips;
        ] );
      ( "iface",
        [
          Alcotest.test_case "down drops queued" `Quick
            test_iface_down_drop_queued;
          Alcotest.test_case "hold-queued survives outage" `Quick
            test_iface_down_hold_queued_then_up;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "empty schedule is bit-identical" `Quick
            test_empty_schedule_bit_identity;
          Alcotest.test_case "failover onto detour" `Quick
            test_failover_onto_detour;
          Alcotest.test_case "outage back-pressure and recovery" `Quick
            test_outage_backpressure_and_recovery;
          Alcotest.test_case "crash wipes custody" `Quick
            test_crash_wipes_custody;
          Alcotest.test_case "crash preserves custody" `Quick
            test_crash_preserve_custody;
          Alcotest.test_case "evacuation-in-flight stays charged" `Quick
            test_evacuation_budget_charged;
          Alcotest.test_case "evacuation under flapping primary" `Quick
            test_evacuation_under_flapping_primary;
          Alcotest.test_case "replay is deterministic" `Quick
            test_replay_deterministic;
          Alcotest.test_case "teardown recycles after outage" `Quick
            test_teardown_recycles_after_outage;
          Alcotest.test_case "teardown recycles after crash" `Quick
            test_teardown_recycles_after_crash;
        ] );
      ( "detour cache",
        [
          Alcotest.test_case "crash refreshes neighbour detours" `Quick
            test_crash_refreshes_neighbour_detours;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "dump on custody wipe" `Quick
            test_flight_recorder_on_custody_wipe;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "bounded requests during partition" `Quick
            test_backoff_bounds_requests_during_partition;
          Alcotest.test_case "control-burst recovery" `Quick
            test_control_burst_recovery;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "loss-recovery sweep" `Quick
            test_loss_recovery_sweep;
          Alcotest.test_case "conservation under random schedules" `Slow
            test_conservation_random_schedules;
        ] );
      ( "fault-matrix",
        [ Alcotest.test_case "3 schedules x 2 topologies" `Quick
            test_fault_matrix ] );
    ]
