(* Overload-control layer: custody admission policies, the receiver
   circuit breaker, the collapse watchdog and schedule merging. *)

module Cache = Chunksim.Cache

(* ------------------------------------------------------------------ *)
(* Admission policies *)

let chunk = 80_000.

let pressure ?(capacity = 10. *. chunk) ?(free = capacity)
    ?(custody_bits = 0.) ?(flow_bits = 0.) ?(flow_backlog = 0)
    ?(incoming_bits = chunk) ?(flows = 0) () =
  let free = Float.min free (capacity -. custody_bits) in
  { Cache.capacity; free; custody_bits; flow_bits; flow_backlog;
    incoming_bits; flows }

let admit p (policy : Cache.policy) = policy p

let test_object_runs () =
  let p = Cache.object_runs ~threshold:0.5 () in
  Alcotest.(check bool) "new run under threshold" true
    (admit (pressure ~custody_bits:(2. *. chunk) ()) p);
  Alcotest.(check bool) "new run above threshold refused" false
    (admit (pressure ~custody_bits:(6. *. chunk) ()) p);
  Alcotest.(check bool) "continuing run always admitted" true
    (admit
       (pressure ~custody_bits:(9. *. chunk) ~flow_bits:chunk ~flow_backlog:1
          ())
       p);
  Alcotest.check_raises "threshold 0 rejected"
    (Invalid_argument "Cache.object_runs: threshold must be in (0, 1]")
    (fun () -> let (_ : Cache.policy) = Cache.object_runs ~threshold:0. () in ())

let test_fair_share () =
  let p = Cache.fair_share () in
  (* 4 flows in custody: equal split is 2.5 chunks each *)
  Alcotest.(check bool) "first chunk always admitted" true
    (admit (pressure ~custody_bits:(9. *. chunk) ~flows:4 ()) p);
  Alcotest.(check bool) "under fair share" true
    (admit
       (pressure ~custody_bits:(8. *. chunk) ~flow_bits:chunk ~flow_backlog:1
          ~flows:4 ())
       p);
  Alcotest.(check bool) "over fair share refused" false
    (admit
       (pressure ~custody_bits:(8. *. chunk) ~flow_bits:(2.5 *. chunk)
          ~flow_backlog:2 ~flows:4 ())
       p)

let test_policy_in_store () =
  let c =
    Cache.create ~capacity:(4. *. chunk)
      ~policy:(Cache.object_runs ~threshold:0.5 ())
      ()
  in
  (* flow 0 starts a run and may continue it past the threshold;
     flow 1's new run is rejected once occupancy is at/over half *)
  Alcotest.(check bool) "first admit" true
    (Cache.put_custody c ~flow:0 ~idx:0 ~bits:chunk = `Stored);
  Alcotest.(check bool) "run continues" true
    (Cache.put_custody c ~flow:0 ~idx:1 ~bits:chunk = `Stored);
  Alcotest.(check bool) "run continues past threshold" true
    (Cache.put_custody c ~flow:0 ~idx:2 ~bits:chunk = `Stored);
  Alcotest.(check bool) "new run rejected at pressure" true
    (Cache.put_custody c ~flow:1 ~idx:0 ~bits:chunk = `Rejected);
  (* no policy: `Rejected is never returned *)
  let plain = Cache.create ~capacity:chunk () in
  Alcotest.(check bool) "no policy: full, not rejected" true
    (Cache.put_custody plain ~flow:0 ~idx:0 ~bits:chunk = `Stored
    && Cache.put_custody plain ~flow:0 ~idx:1 ~bits:chunk = `Full)

let test_peek_commit () =
  let c = Cache.create ~capacity:(4. *. chunk) () in
  ignore (Cache.put_custody c ~flow:7 ~idx:3 ~bits:chunk);
  ignore (Cache.put_custody c ~flow:7 ~idx:4 ~bits:chunk);
  (* peek is non-destructive: budget stays charged *)
  Alcotest.(check int) "peek oldest" 3 (Cache.peek_custody c ~flow:7);
  Alcotest.(check (float 0.)) "still charged" (2. *. chunk)
    (Cache.custody_occupancy c);
  Cache.commit_custody c ~flow:7;
  Alcotest.(check (float 0.)) "released on commit" chunk
    (Cache.custody_occupancy c);
  Alcotest.(check int) "next chunk" 4 (Cache.peek_custody c ~flow:7);
  Cache.commit_custody c ~flow:7;
  Alcotest.(check int) "none left" (-1) (Cache.peek_custody c ~flow:7);
  Alcotest.check_raises "commit with no custody"
    (Invalid_argument "Cache.commit_custody: flow holds no custody")
    (fun () -> Cache.commit_custody c ~flow:7)

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

let test_breaker_cycle () =
  let b = Overload.Breaker.create ~budget:2 ~probe_interval:1.0 in
  Alcotest.(check bool) "starts closed" true
    (Overload.Breaker.state b = Overload.Breaker.Closed);
  Alcotest.(check bool) "retry 1" true
    (Overload.Breaker.on_timeout b ~clock:[| 0.1 |] = `Retry);
  Alcotest.(check bool) "retry 2" true
    (Overload.Breaker.on_timeout b ~clock:[| 0.2 |] = `Retry);
  Alcotest.(check bool) "budget exhausted: trips open" true
    (Overload.Breaker.on_timeout b ~clock:[| 0.3 |] = `Wait);
  Alcotest.(check bool) "open waits inside the probe interval" true
    (Overload.Breaker.on_timeout b ~clock:[| 0.9 |] = `Wait);
  Alcotest.(check bool) "probe after the interval" true
    (Overload.Breaker.on_timeout b ~clock:[| 1.4 |] = `Probe);
  Alcotest.(check bool) "half-open" true
    (Overload.Breaker.state b = Overload.Breaker.Half_open);
  (* a barren probe re-opens; progress closes *)
  Alcotest.(check bool) "barren probe re-opens" true
    (Overload.Breaker.on_timeout b ~clock:[| 1.5 |] = `Wait);
  Alcotest.(check bool) "probe again" true
    (Overload.Breaker.on_timeout b ~clock:[| 2.6 |] = `Probe);
  Overload.Breaker.on_progress b;
  Alcotest.(check bool) "progress closes" true
    (Overload.Breaker.state b = Overload.Breaker.Closed);
  Alcotest.(check bool) "closed retries again" true
    (Overload.Breaker.on_timeout b ~clock:[| 3.0 |] = `Retry)

(* Config.Off is every receiver's default: the breaker it arms (an
   unbounded budget) must never leave Closed, so each barren timeout
   retries as if there were none, and its store takes no admission
   policy *)
let test_breaker_off () =
  let off = Overload.Config.Off in
  let b = Overload.Breaker.create ~budget:max_int ~probe_interval:infinity in
  for i = 1 to 10_000 do
    if Overload.Breaker.on_timeout b ~clock:[| float_of_int i |] <> `Retry then
      Alcotest.failf "timeout %d did not retry" i
  done;
  Alcotest.(check bool) "still closed" true
    (Overload.Breaker.state b = Overload.Breaker.Closed);
  Alcotest.(check bool) "no store policy" true
    (Option.is_none (Overload.Config.policy off))

(* Permanent partition: the breaker caps sends at roughly
   budget + elapsed / probe_interval; without it the receiver's
   exponential backoff is the only brake.  The flow can never
   complete, so the run lasts the full horizon. *)
let test_breaker_bounded_partition () =
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "sender" in
  let n1 = Topology.Graph.Builder.add_node b "router" in
  let n2 = Topology.Graph.Builder.add_node b "receiver" in
  (* 1 Mbps: 50 chunks take ~4 s, so the 0.5 s partition catches the
     flow mid-flight and it can never complete *)
  Topology.Graph.Builder.add_edge b ~capacity:1e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:1e6 ~delay:2e-3 n1 n2;
  let g = Topology.Graph.Builder.build b in
  let lid a z =
    (Option.get (Topology.Graph.find_link g a z)).Topology.Link.id
  in
  (* both directions die at 0.5 s and never come back *)
  let faults =
    Fault.Schedule.of_list
      (List.concat_map
         (fun (a, z) ->
           [
             { Fault.Schedule.at = 0.5;
               event =
                 Fault.Schedule.Link_down
                   { link = lid a z; policy = `Drop_queued } };
           ])
         [ (0, 1); (1, 0); (1, 2); (2, 1) ])
  in
  let horizon = 30. in
  let r =
    Inrpp.Protocol.run ~horizon ~faults ~overload:Overload.Config.default g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 50 ]
  in
  Alcotest.(check int) "flow cannot complete" 0 r.Inrpp.Protocol.completed;
  let sent = r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.requests_sent in
  let bound =
    10 (* pre-partition chunk requests: ~6 delivered plus pipeline *)
    + Overload.Config.retry_budget
    + int_of_float (horizon /. Overload.Config.probe_interval)
    + 2 (* edge slack *)
  in
  Alcotest.(check bool)
    (Printf.sprintf "requests bounded (%d <= %d)" sent bound)
    true (sent <= bound);
  Alcotest.(check bool) "breaker actually probed (sent > budget)" true
    (sent > Overload.Config.retry_budget + 1)

(* ------------------------------------------------------------------ *)
(* Collapse watchdog *)

let feed wd ~from ~until ~step ~bits =
  let t = ref from in
  while !t < until -. 1e-9 do
    Obs.Watchdog.note_delivery wd ~time:!t ~bits;
    t := !t +. step
  done

let test_watchdog_once_per_episode () =
  let collapses = ref 0 in
  let wd =
    Obs.Watchdog.create ~window:1.0 ~collapse_ratio:0.3 ~recovery_ratio:0.7
      ~on_collapse:(fun ~time:_ ~rate:_ ~peak:_ -> incr collapses)
  in
  (* steady 10 kbps for 4 s *)
  feed wd ~from:0. ~until:4. ~step:0.1 ~bits:1000.;
  Alcotest.(check int) "no collapse while steady" 0 (Obs.Watchdog.episodes wd);
  (* total stall: only ticks observe it; the callback fires exactly
     once no matter how many ticks land inside the episode *)
  List.iter (fun t -> Obs.Watchdog.tick wd ~time:t) [ 4.5; 5.0; 5.5; 6.0 ];
  Alcotest.(check int) "one episode" 1 (Obs.Watchdog.episodes wd);
  Alcotest.(check int) "callback fired once" 1 !collapses;
  Alcotest.(check bool) "in collapse" true (Obs.Watchdog.in_collapse wd);
  (* resume at the old rate: recovery fires, with measured elapsed *)
  feed wd ~from:6. ~until:8. ~step:0.1 ~bits:1000.;
  Alcotest.(check bool) "recovered" false (Obs.Watchdog.in_collapse wd);
  Alcotest.(check int) "still one episode" 1 (Obs.Watchdog.episodes wd);
  (match Obs.Watchdog.recovery_times wd with
  | [ e ] ->
    Alcotest.(check bool)
      (Printf.sprintf "recovery elapsed %.2f in (1, 4)" e)
      true
      (e > 1. && e < 4.)
  | l -> Alcotest.failf "expected one recovery, got %d" (List.length l));
  (* a second stall is a second episode *)
  List.iter (fun t -> Obs.Watchdog.tick wd ~time:t) [ 9.0; 9.5; 10.0 ];
  Alcotest.(check int) "second episode" 2 (Obs.Watchdog.episodes wd);
  Alcotest.(check int) "second callback" 2 !collapses

let test_watchdog_peak_decay () =
  (* a one-off startup burst must not anchor the thresholds: after the
     burst, steady delivery at 0.29 of the burst rate, under the 0.3
     collapse ratio, is NOT a collapse once the reference has aged
     (time constant 8 x window) *)
  let collapses = ref 0 in
  let wd =
    Obs.Watchdog.create ~window:1.0 ~collapse_ratio:0.3 ~recovery_ratio:0.7
      ~on_collapse:(fun ~time:_ ~rate:_ ~peak:_ -> incr collapses)
  in
  feed wd ~from:0. ~until:1. ~step:0.05 ~bits:1750. (* burst: 35 kbps *);
  feed wd ~from:1. ~until:12. ~step:0.1 ~bits:1000. (* steady: 10 kbps *);
  Alcotest.(check int) "no collapse from normalisation" 0 !collapses;
  Alcotest.(check bool) "reference decayed towards steady rate" true
    (Obs.Watchdog.peak wd < 20_000.)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "overload"
    [
      ( "admission",
        [
          Alcotest.test_case "object-runs" `Quick test_object_runs;
          Alcotest.test_case "fair-share" `Quick test_fair_share;
          Alcotest.test_case "policy in store" `Quick test_policy_in_store;
          Alcotest.test_case "peek then commit" `Quick test_peek_commit;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "state cycle" `Quick test_breaker_cycle;
          Alcotest.test_case "bounded under permanent partition" `Quick
            test_breaker_bounded_partition;
          Alcotest.test_case "off never opens" `Quick test_breaker_off;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "fires once per episode" `Quick
            test_watchdog_once_per_episode;
          Alcotest.test_case "peak decay" `Quick test_watchdog_peak_decay;
        ] );
    ]
