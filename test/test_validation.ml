(* Validation subsystem tests: the runtime invariant checkers (fed
   synthetic violating traces so we know they actually fire), a
   checked PIT-less sweep over 50 seeds, and end-to-end protocol runs
   under [?check]. *)

module Inv = Check.Invariant
module Trace = Chunksim.Trace

(* ------------------------------------------------------------------ *)
(* Collector basics *)

let test_collector_basics () =
  let c = Inv.create ~limit:2 () in
  Alcotest.(check bool) "fresh collector ok" true (Inv.ok c);
  Inv.violate c ~time:1. ~checker:"a" "first";
  Inv.violate c ~time:2. ~checker:"b" "second";
  Inv.violate c ~time:3. ~checker:"c" "third";
  Alcotest.(check bool) "violations mean not ok" false (Inv.ok c);
  Alcotest.(check bool) "total counts past the limit" true
    (String.starts_with ~prefix:"3 invariant violations" (Inv.report c));
  let kept = Inv.violations c in
  Alcotest.(check int) "retention bounded by limit" 2 (List.length kept);
  (match kept with
  | [ a; b ] ->
    Alcotest.(check bool) "oldest-first order" true
      (a.Inv.time < b.Inv.time)
  | _ -> Alcotest.fail "expected two retained violations");
  Alcotest.(check bool) "report names a checker" true
    (let r = Inv.report c in
     String.length r > 0)

let test_probes_run () =
  let c = Inv.create () in
  let hits = ref [] in
  Inv.add_probe c (fun t -> hits := t :: !hits);
  Inv.probe c ~time:0.5;
  Inv.probe c ~time:1.5;
  Alcotest.(check (list (float 0.))) "probe times" [ 1.5; 0.5 ] !hits

(* ------------------------------------------------------------------ *)
(* Phase legality *)

let phase ~node ~link p = Trace.Phase_change { node; link; phase = p }

let test_phase_legality_clean () =
  let c = Inv.create () in
  let h = Inv.phase_legality c in
  (* full legal tour from the implicit initial push-data state,
     including the custody-drained backpressure -> detour edge *)
  h 0.1 (phase ~node:1 ~link:0 Trace.Detour);
  h 0.2 (phase ~node:1 ~link:0 Trace.Backpressure);
  h 0.3 (phase ~node:1 ~link:0 Trace.Detour);
  h 0.4 (phase ~node:1 ~link:0 Trace.Push_data);
  h 0.5 (phase ~node:1 ~link:0 Trace.Backpressure);
  h 0.6 (phase ~node:1 ~link:0 Trace.Push_data);
  (* independent interface state per (node, link) *)
  h 0.7 (phase ~node:1 ~link:1 Trace.Backpressure);
  h 0.8 (phase ~node:2 ~link:0 Trace.Detour);
  Alcotest.(check bool) "legal tour is clean" true (Inv.ok c)

let test_phase_legality_self_transition () =
  let c = Inv.create () in
  let h = Inv.phase_legality c in
  h 0.1 (phase ~node:0 ~link:0 Trace.Detour);
  h 0.2 (phase ~node:0 ~link:0 Trace.Detour);
  Alcotest.(check int) "self-transition flagged" 1 (List.length (Inv.violations c))

let test_phase_legality_initial_state () =
  let c = Inv.create () in
  let h = Inv.phase_legality c in
  (* recording "push-data" first is a self-transition out of the
     implicit initial state and must be flagged *)
  h 0.1 (phase ~node:3 ~link:2 Trace.Push_data);
  Alcotest.(check int) "initial state is push-data" 1 (List.length (Inv.violations c))

(* ------------------------------------------------------------------ *)
(* Back-pressure ordering *)

let bp ~node ~flow engage = Trace.Bp_signal { node; flow; engage }

let test_bp_ordering_clean () =
  let c = Inv.create () in
  let h = Inv.bp_ordering c in
  (* local engage + relayed engage, then both released *)
  h 0.1 (bp ~node:1 ~flow:0 true);
  h 0.2 (bp ~node:1 ~flow:0 true);
  h 0.3 (bp ~node:1 ~flow:0 false);
  h 0.4 (bp ~node:1 ~flow:0 false);
  (* a different flow on the same node is tracked separately *)
  h 0.5 (bp ~node:1 ~flow:1 true);
  h 0.6 (bp ~node:1 ~flow:1 false);
  Alcotest.(check bool) "balanced signals are clean" true (Inv.ok c)

let test_bp_ordering_triple_engage () =
  let c = Inv.create () in
  let h = Inv.bp_ordering c in
  h 0.1 (bp ~node:1 ~flow:0 true);
  h 0.2 (bp ~node:1 ~flow:0 true);
  h 0.3 (bp ~node:1 ~flow:0 true);
  Alcotest.(check int) "third engage flagged" 1 (List.length (Inv.violations c))

let test_bp_ordering_spurious_release () =
  let c = Inv.create () in
  let h = Inv.bp_ordering c in
  h 0.1 (bp ~node:2 ~flow:5 false);
  Alcotest.(check int) "release before engage flagged" 1 (List.length (Inv.violations c))

(* ------------------------------------------------------------------ *)
(* Chunk conservation *)

let test_conservation_clean () =
  let c = Inv.create () in
  let cons = Inv.Conservation.create c in
  Inv.Conservation.note_push cons ~flow:0 ~idx:0;
  Inv.Conservation.note_push cons ~flow:0 ~idx:1;
  Inv.Conservation.note_delivery cons ~time:0.2 ~flow:0 ~idx:0;
  Inv.Conservation.note_delivery cons ~time:0.3 ~flow:0 ~idx:1;
  Inv.Conservation.finish cons ~time:1. ~quiescent:true ~in_custody:0
    ~wire_losses:0;
  Alcotest.(check int) "pushes" 2 (Inv.Conservation.pushes cons);
  Alcotest.(check int) "deliveries" 2 (Inv.Conservation.deliveries cons);
  Alcotest.(check bool) "balanced run is clean" true (Inv.ok c)

let test_conservation_duplicate_delivery () =
  let c = Inv.create () in
  let cons = Inv.Conservation.create c in
  Inv.Conservation.note_push cons ~flow:0 ~idx:0;
  Inv.Conservation.note_delivery cons ~time:0.2 ~flow:0 ~idx:0;
  Inv.Conservation.note_delivery cons ~time:0.3 ~flow:0 ~idx:0;
  Alcotest.(check bool) "duplicate delivery flagged" false (Inv.ok c)

let test_conservation_conjured_chunk () =
  let c = Inv.create () in
  let cons = Inv.Conservation.create c in
  Inv.Conservation.note_delivery cons ~time:0.1 ~flow:7 ~idx:3;
  Alcotest.(check bool) "unsent delivery flagged" false (Inv.ok c)

let test_conservation_missing_chunks () =
  let c = Inv.create () in
  let cons = Inv.Conservation.create c in
  Inv.Conservation.note_push cons ~flow:0 ~idx:0;
  Inv.Conservation.note_push cons ~flow:0 ~idx:1;
  Inv.Conservation.note_delivery cons ~time:0.2 ~flow:0 ~idx:0;
  (* chunk 1 vanished: not delivered, not in custody, no drops *)
  Inv.Conservation.finish cons ~time:1. ~quiescent:true ~in_custody:0
    ~wire_losses:0;
  Alcotest.(check bool) "vanished chunk flagged" false (Inv.ok c)

let test_conservation_cache_hit_is_push () =
  let c = Inv.create () in
  let cons = Inv.Conservation.create c in
  let h = Inv.Conservation.handler cons in
  Inv.Conservation.note_push cons ~flow:0 ~idx:0;
  Inv.Conservation.note_delivery cons ~time:0.2 ~flow:0 ~idx:0;
  (* a cache hit conjures a fresh copy, so a second delivery of the
     same chunk id is legitimate *)
  h 0.3 (Trace.Cache_hit { node = 1; flow = 0; idx = 0 });
  Inv.Conservation.note_delivery cons ~time:0.4 ~flow:0 ~idx:0;
  Inv.Conservation.finish cons ~time:1. ~quiescent:true ~in_custody:0
    ~wire_losses:0;
  Alcotest.(check bool) "cache-hit copy accounted" true (Inv.ok c)

(* a data drop the trace records is a copy gone for good; a dropped
   request carries no chunk *)
let test_conservation_drops_from_trace () =
  let run packet =
    let c = Inv.create () in
    let cons = Inv.Conservation.create c in
    let h = Inv.Conservation.handler cons in
    Inv.Conservation.note_push cons ~flow:0 ~idx:0;
    Inv.Conservation.note_push cons ~flow:0 ~idx:1;
    Inv.Conservation.note_delivery cons ~time:0.2 ~flow:0 ~idx:0;
    h 0.3 (Trace.Dropped { node = 1; link = -1; packet; flow = 0; idx = 1 });
    Inv.Conservation.finish cons ~time:1. ~quiescent:true ~in_custody:0
      ~wire_losses:0;
    Inv.ok c
  in
  Alcotest.(check bool) "dropped data balances" true (run Trace.Data);
  Alcotest.(check bool) "dropped request does not" false (run Trace.Request)

let test_custody_ledger_probe () =
  let c = Inv.create () in
  let counts = ref (0, 0) in
  Inv.custody_ledger c ~name:"router-9" (fun () -> !counts);
  Inv.probe c ~time:0.1;
  Alcotest.(check bool) "agreeing ledgers clean" true (Inv.ok c);
  counts := (2, 3);
  Inv.probe c ~time:0.2;
  Alcotest.(check int) "desynced ledgers flagged" 1 (List.length (Inv.violations c))

(* ------------------------------------------------------------------ *)
(* Seed sweeps *)

(* sweep 50 seeds across two domains so the ordinary test run also
   exercises the parallel path; results join in seed order, so the
   first failure reported is the same as a sequential sweep's *)
let check_sweep name check =
  let failures =
    Array.init 50 (fun seed () -> check ~seed)
    |> Parallel.Pool.run_jobs ~domains:2
    |> Array.to_list
    |> List.filter_map (function Ok () -> None | Error detail -> Some detail)
  in
  match failures with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf "%s: %d/50 seeds diverged; first: %s" name
      (List.length failures) first

(* ------------------------------------------------------------------ *)
(* Protocol runs under the invariant checkers: PIT-less forwarding
   over 50 seeds, then named scenarios *)

let bulk = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 }

(* seed-varied multi-flow scenario: even seeds run fig3 (detours in
   play), odd seeds a 5x-overloaded bottleneck line (custody, BP, and
   under PIT-less, queue drops); flow count, sizes and start offsets
   all derive from the seed *)
let seeded_scenario seed =
  let rng = Sim.Rng.create (Int64.of_int (0xF10A + seed)) in
  let g, src, dst =
    if seed mod 2 = 0 then (Topology.Builders.fig3 (), 0, 3)
    else
      let b = Topology.Graph.Builder.create () in
      let n0 = Topology.Graph.Builder.add_node b "src" in
      let n1 = Topology.Graph.Builder.add_node b "mid" in
      let n2 = Topology.Graph.Builder.add_node b "dst" in
      Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
      Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
      (Topology.Graph.Builder.build b, n0, n2)
  in
  let n = 1 + Sim.Rng.int rng 3 in
  let specs =
    List.init n (fun i ->
        Inrpp.Protocol.flow_spec ~src ~dst
          ~start:(float_of_int i *. (0.05 +. Sim.Rng.float rng 0.2))
          (30 + Sim.Rng.int rng 90))
  in
  (g, specs)

(* PIT-less runs keep no router flow state: conservation and the
   custody ledger must still balance (exactly: the trace counts every
   drop), and the odd-seed bottleneck scenarios do drop *)
let pitless_checked ~seed =
  let g, specs = seeded_scenario seed in
  let chk = Inv.create () in
  let r =
    Inrpp.Protocol.run
      ~cfg:{ bulk with Inrpp.Config.pitless = true }
      ~horizon:600. ~check:chk g specs
  in
  let n = List.length specs in
  if Inv.ok chk && r.Inrpp.Protocol.completed = n then Ok ()
  else
    Error
      (Printf.sprintf "seed %d: completed %d/%d; %s" seed
         r.Inrpp.Protocol.completed n (Inv.report chk))

let test_differential_pitless_checked () =
  check_sweep "pitless conservation/ledger" pitless_checked

(* ------------------------------------------------------------------ *)
(* One drop path: each node's [Dropped] events equal its
   [router_dropped_total] *)

type drops = {
  total : int;
  on_a_link : int;  (* refused by a named link: a mid-detour send *)
  stripped : int;   (* recorded at the instant their flow completed *)
}

let drops_traced ?(cfg = bulk) ?overload ?workload ~horizon g specs =
  let o = Obs.Observer.create () in
  let trace = Chunksim.Trace.create () in
  let traced = Hashtbl.create 16 and last = Hashtbl.create 16 in
  let d = ref { total = 0; on_a_link = 0; stripped = 0 } in
  Chunksim.Trace.on_record trace (fun time e ->
      match e with
      | Trace.Dropped { node; link; flow; _ } ->
        let n = Option.value ~default:0 (Hashtbl.find_opt traced node) in
        Hashtbl.replace traced node (n + 1);
        (* a teardown strips custody just before the flow completes *)
        let k =
          match Hashtbl.find_opt last flow with
          | Some (t, k) when t = time -> k
          | Some _ | None -> 0
        in
        Hashtbl.replace last flow (time, k + 1);
        d :=
          {
            !d with
            total = !d.total + 1;
            on_a_link = (!d.on_a_link + if link >= 0 then 1 else 0);
          }
      | Trace.Flow_complete { flow; _ } -> (
        match Hashtbl.find_opt last flow with
        | Some (t, k) when t = time -> d := { !d with stripped = !d.stripped + k }
        | Some _ | None -> ())
      | _ -> ());
  let r =
    Inrpp.Protocol.run ~cfg ?overload ?workload ~horizon ~trace ~obs:o g specs
  in
  List.iter
    (fun (s : Obs.Metric.sample) ->
      if s.Obs.Metric.name = "router_dropped_total" then begin
        let node = int_of_string (List.assoc "node" s.Obs.Metric.labels) in
        let counted =
          match s.Obs.Metric.value with
          | Obs.Metric.Gauge_v v -> int_of_float v
          | _ -> Alcotest.fail "router_dropped_total is not a gauge"
        in
        Alcotest.(check int)
          (Printf.sprintf "node %d: Dropped events = router_dropped_total" node)
          counted
          (Option.value ~default:0 (Hashtbl.find_opt traced node))
      end)
    (Obs.Metric.snapshot (Obs.Observer.registry o));
  Alcotest.(check int) "result total" r.Inrpp.Protocol.total_drops !d.total;
  (r, !d)

(* 32 bulk flows between random EBONE pairs: detours refused mid-way *)
let test_drops_ebone_bulk () =
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let n = Topology.Graph.node_count g in
  let rng = Sim.Rng.create 1L in
  let rec pairs acc k =
    if k = 0 then acc
    else
      let src = Sim.Rng.int rng n and dst = Sim.Rng.int rng n in
      if src = dst then pairs acc k
      else pairs (Inrpp.Protocol.flow_spec ~src ~dst 300 :: acc) (k - 1)
  in
  let _, d = drops_traced ~horizon:3600. g (pairs [] 32) in
  Alcotest.(check bool)
    (Printf.sprintf "mid-detour refusals (%d)" d.on_a_link)
    true (d.on_a_link > 0)

(* the flash crowd on a dumbbell with small stores *)
let crowd ~seed =
  ( Topology.Builders.dumbbell ~access_capacity:100e6
      ~bottleneck_capacity:10e6 4,
    { Inrpp.Config.default with
      Inrpp.Config.cache_bits = 100. *. Inrpp.Config.default.Inrpp.Config.chunk_bits },
    {
      Workload.Gen.default with
      Workload.Gen.seed;
      horizon = 60.;
      max_requests = 300;
      objects = 256;
      alpha = 0.8;
      chunk_min = 16;
      chunk_max = 512;
      chunk_shape = 1.2;
      rate = 10.;
      bursts = [ Workload.Arrivals.burst ~at:10. ~duration:10. ~boost:8. ];
      producers = [ Topology.Node.Host ];
      consumers = [ Topology.Node.Host ];
    } )

(* shed, full-store and duplicate refusals *)
let test_drops_overload () =
  let g, cfg, workload = crowd ~seed:1L in
  let r, d =
    drops_traced ~cfg ~overload:Overload.Config.default ~workload
      ~horizon:3600. g []
  in
  Alcotest.(check bool)
    (Printf.sprintf "shed %d of %d drops" r.Inrpp.Protocol.shed d.total)
    true
    (r.Inrpp.Protocol.shed > 0 && d.total > r.Inrpp.Protocol.shed)

(* the "Living in a PIT-less World" ablation's two scenarios *)
let test_drops_pitless () =
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "0" in
  let n1 = Topology.Graph.Builder.add_node b "1" in
  let n2 = Topology.Graph.Builder.add_node b "2" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  let cfg = { bulk with Inrpp.Config.pitless = true } in
  let _, line =
    drops_traced ~cfg ~horizon:120. (Topology.Graph.Builder.build b)
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ]
  in
  let _, fig3 =
    drops_traced ~cfg ~horizon:120. (Topology.Builders.fig3 ())
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "drops (%d)" (line.total + fig3.total))
    true
    (line.total + fig3.total > 0)

(* a finished flow's leftover custody copies go as drops *)
let test_drops_teardown () =
  let g, cfg, workload = crowd ~seed:1L in
  let _, d =
    drops_traced
      ~cfg:{ cfg with Inrpp.Config.flow_teardown = true }
      ~overload:Overload.Config.default ~workload ~horizon:3600. g []
  in
  Alcotest.(check bool)
    (Printf.sprintf "custody stripped (%d)" d.stripped)
    true (d.stripped > 0)

let checked_run ?cfg ?loss_rate g specs =
  let chk = Inv.create () in
  let r = Inrpp.Protocol.run ?cfg ?loss_rate ~check:chk g specs in
  (r, chk)

let test_check_clean_fig3 () =
  let g = Topology.Builders.fig3 () in
  let r, chk =
    checked_run ~cfg:bulk g [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300 ]
  in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  if not (Inv.ok chk) then Alcotest.fail (Inv.report chk)

let test_check_clean_backpressure () =
  (* dumbbell with aggressive senders: exercises custody, back
     pressure and phase changes under the checkers *)
  let g =
    Topology.Builders.dumbbell ~access_capacity:10e6
      ~bottleneck_capacity:2e6 3
  in
  let specs =
    List.init 3 (fun i ->
        Inrpp.Protocol.flow_spec ~src:(2 + i) ~dst:(5 + i) 120)
  in
  let r, chk = checked_run ~cfg:bulk g specs in
  Alcotest.(check int) "completes" 3 r.Inrpp.Protocol.completed;
  Alcotest.(check bool) "backpressure exercised" true
    (r.Inrpp.Protocol.bp_engages > 0);
  if not (Inv.ok chk) then Alcotest.fail (Inv.report chk)

let test_check_clean_lossy () =
  (* under injected wire loss the aggregate balance degrades to an
     inequality; the checkers must accept a clean lossy run *)
  let g = Topology.Builders.line ~capacity:10e6 ~delay:2e-3 3 in
  let r, chk =
    checked_run ~cfg:bulk ~loss_rate:0.02 g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 100 ]
  in
  Alcotest.(check int) "completes despite loss" 1 r.Inrpp.Protocol.completed;
  if not (Inv.ok chk) then Alcotest.fail (Inv.report chk)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "validation"
    [
      ( "collector",
        [
          Alcotest.test_case "basics" `Quick test_collector_basics;
          Alcotest.test_case "probes" `Quick test_probes_run;
        ] );
      ( "phase legality",
        [
          Alcotest.test_case "legal tour" `Quick test_phase_legality_clean;
          Alcotest.test_case "self transition" `Quick
            test_phase_legality_self_transition;
          Alcotest.test_case "initial state" `Quick
            test_phase_legality_initial_state;
        ] );
      ( "bp ordering",
        [
          Alcotest.test_case "balanced" `Quick test_bp_ordering_clean;
          Alcotest.test_case "triple engage" `Quick
            test_bp_ordering_triple_engage;
          Alcotest.test_case "spurious release" `Quick
            test_bp_ordering_spurious_release;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "clean" `Quick test_conservation_clean;
          Alcotest.test_case "duplicate delivery" `Quick
            test_conservation_duplicate_delivery;
          Alcotest.test_case "conjured chunk" `Quick
            test_conservation_conjured_chunk;
          Alcotest.test_case "missing chunks" `Quick
            test_conservation_missing_chunks;
          Alcotest.test_case "cache hit copies" `Quick
            test_conservation_cache_hit_is_push;
          Alcotest.test_case "drops from the trace" `Quick
            test_conservation_drops_from_trace;
          Alcotest.test_case "custody ledger probe" `Quick
            test_custody_ledger_probe;
        ] );
      ( "differential",
        [
          Alcotest.test_case "pitless conservation x50" `Quick
            test_differential_pitless_checked;
        ] );
      ( "drops traced",
        [
          Alcotest.test_case "ebone bulk" `Quick test_drops_ebone_bulk;
          Alcotest.test_case "overload" `Quick test_drops_overload;
          Alcotest.test_case "pitless" `Quick test_drops_pitless;
          Alcotest.test_case "teardown" `Quick test_drops_teardown;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "check clean fig3" `Quick test_check_clean_fig3;
          Alcotest.test_case "check clean backpressure" `Quick
            test_check_clean_backpressure;
          Alcotest.test_case "check clean lossy" `Quick test_check_clean_lossy;
        ] );
    ]
