(* Tests for the baseline transports (AIMD / MPTCP / RCP / HBH) and the
   INRPP-vs-baselines comparison harness. *)

module C = Baselines.Comparison

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

let line10 () = Topology.Builders.line ~capacity:10e6 ~delay:2e-3 3

let spec ?(start = 0.) src dst chunks =
  Inrpp.Protocol.flow_spec ~start ~src ~dst chunks

let bulk = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 }

(* ------------------------------------------------------------------ *)
(* Window *)

let test_window_slow_start () =
  let w = Baselines.Window.create ~init:2. ~ssthresh:8. () in
  (* slow start: below ssthresh = 8 *)
  Alcotest.(check bool) "starts slow" true (Baselines.Window.size w < 8.);
  for _ = 1 to 6 do
    Baselines.Window.on_ack w ~now:0. ~rtt_sample:0.1
  done;
  Alcotest.(check bool) "left slow start" true (Baselines.Window.size w >= 8.)

let test_window_ca_growth_rate () =
  let w = Baselines.Window.create ~init:10. ~ssthresh:5. () in
  let before = Baselines.Window.size w in
  Baselines.Window.on_ack w ~now:0. ~rtt_sample:0.1;
  check_close "1/w growth" 1e-9 (before +. (1. /. before)) (Baselines.Window.size w)

let test_window_loss_halves () =
  let w = Baselines.Window.create ~init:16. ~ssthresh:4. () in
  Baselines.Window.on_ack w ~now:0. ~rtt_sample:0.1;
  let before = Baselines.Window.size w in
  Baselines.Window.on_loss w ~now:1.;
  check_close "halved" 1e-6 (before /. 2.) (Baselines.Window.size w);
  (* a second loss within the same RTT is one congestion event *)
  Baselines.Window.on_loss w ~now:1.01;
  check_close "single cut" 1e-6 (before /. 2.) (Baselines.Window.size w);
  Alcotest.(check int) "one loss event" 1 (Baselines.Window.losses w)

let test_window_rto () =
  let w = Baselines.Window.create () in
  check_close "initial rto 1s" 1e-9 1. (Baselines.Window.rto w);
  Baselines.Window.on_ack w ~now:0. ~rtt_sample:0.1;
  let rto = Baselines.Window.rto w in
  Alcotest.(check bool) "rto tracks rtt" true (rto > 0.1 && rto < 1.)

let test_window_coupled_growth () =
  let w = Baselines.Window.create ~init:10. ~ssthresh:5. () in
  let before = Baselines.Window.size w in
  (* total window 40 across subflows: growth min(1/40, 1/10) = 1/40 *)
  Baselines.Window.on_ack_coupled w ~now:0. ~rtt_sample:0.1 ~total_window:40.;
  check_close "LIA damped" 1e-9 (before +. (1. /. 40.)) (Baselines.Window.size w)

(* ------------------------------------------------------------------ *)
(* AIMD transport *)

let test_aimd_completes_clean_path () =
  let r = C.run_one ~horizon:120. C.Aimd_proto (line10 ()) [ spec 0 2 100 ] in
  Alcotest.(check int) "done" 1 r.Baselines.Run_result.completed;
  Alcotest.(check bool) "reasonable fct" true
    (r.Baselines.Run_result.mean_fct > 0.8
    && r.Baselines.Run_result.mean_fct < 10.)

let test_aimd_losses_on_bottleneck () =
  (* a 5x bandwidth drop with small buffers must cause losses and
     recovery, and still complete *)
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "0" in
  let n1 = Topology.Graph.Builder.add_node b "1" in
  let n2 = Topology.Graph.Builder.add_node b "2" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  let g = Topology.Graph.Builder.build b in
  let r =
    C.run_one
      ~cfg:{ Inrpp.Config.default with Inrpp.Config.queue_bits = 16. *. 80e3 }
      ~horizon:120. C.Aimd_proto g [ spec 0 2 200 ]
  in
  Alcotest.(check int) "done" 1 r.Baselines.Run_result.completed;
  Alcotest.(check bool) "losses happened" true (r.Baselines.Run_result.drops > 0);
  Alcotest.(check bool) "recovered all chunks" true
    (r.Baselines.Run_result.retransmissions > 0)

let test_aimd_two_flows_fair () =
  let g = Topology.Builders.dumbbell ~access_capacity:10e6 ~bottleneck_capacity:4e6 2 in
  (* dumbbell hosts: sources 2,3; sinks 4,5 *)
  let r = C.run_one ~horizon:120. C.Aimd_proto g [ spec 2 4 150; spec 3 5 150 ] in
  Alcotest.(check int) "both done" 2 r.Baselines.Run_result.completed;
  Alcotest.(check bool)
    (Printf.sprintf "fair-ish (jain %.3f)" r.Baselines.Run_result.jain)
    true
    (r.Baselines.Run_result.jain > 0.8)

(* ------------------------------------------------------------------ *)
(* MPTCP transport *)

let test_mptcp_uses_both_paths () =
  (* fig3 has two disjoint 0->3 paths; MPTCP should beat AIMD *)
  let g = Topology.Builders.fig3 () in
  let aimd = C.run_one ~horizon:120. C.Aimd_proto g [ spec 0 3 300 ] in
  let mptcp = C.run_one ~horizon:120. C.Mptcp_proto g [ spec 0 3 300 ] in
  Alcotest.(check int) "aimd done" 1 aimd.Baselines.Run_result.completed;
  Alcotest.(check int) "mptcp done" 1 mptcp.Baselines.Run_result.completed;
  Alcotest.(check bool)
    (Printf.sprintf "mptcp %.2fs < aimd %.2fs" mptcp.Baselines.Run_result.mean_fct
       aimd.Baselines.Run_result.mean_fct)
    true
    (mptcp.Baselines.Run_result.mean_fct < aimd.Baselines.Run_result.mean_fct)

let test_mptcp_single_path_degenerates () =
  (* on a line there is one path: MPTCP ~ AIMD *)
  let g = line10 () in
  let aimd = C.run_one ~horizon:120. C.Aimd_proto g [ spec 0 2 100 ] in
  let mptcp = C.run_one ~horizon:120. C.Mptcp_proto g [ spec 0 2 100 ] in
  check_close "same fct" 0.5 aimd.Baselines.Run_result.mean_fct
    mptcp.Baselines.Run_result.mean_fct

(* ------------------------------------------------------------------ *)
(* RCP transport *)

let test_rcp_completes_and_paces () =
  let r = C.run_one ~horizon:120. C.Rcp_proto (line10 ()) [ spec 0 2 100 ] in
  Alcotest.(check int) "done" 1 r.Baselines.Run_result.completed;
  (* paced at the fair share: no queue overflows at all *)
  Alcotest.(check int) "no drops" 0 r.Baselines.Run_result.drops

let test_rcp_fair_shares () =
  let g = Topology.Builders.dumbbell ~access_capacity:10e6 ~bottleneck_capacity:4e6 2 in
  let r = C.run_one ~horizon:120. C.Rcp_proto g [ spec 2 4 100; spec 3 5 100 ] in
  Alcotest.(check int) "both done" 2 r.Baselines.Run_result.completed;
  Alcotest.(check bool)
    (Printf.sprintf "near-perfect fairness (jain %.3f)" r.Baselines.Run_result.jain)
    true
    (r.Baselines.Run_result.jain > 0.95)

(* ------------------------------------------------------------------ *)
(* HBH interest shaping *)

let test_hbh_lossless_on_bottleneck () =
  (* shaping the interest stream prevents any queue overflow, but the
     transfer runs at the slowest link (the paper's §4 critique) *)
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "0" in
  let n1 = Topology.Graph.Builder.add_node b "1" in
  let n2 = Topology.Graph.Builder.add_node b "2" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  let g = Topology.Graph.Builder.build b in
  let r = C.run_one ~horizon:120. C.Hbh_proto g [ spec 0 2 200 ] in
  Alcotest.(check int) "done" 1 r.Baselines.Run_result.completed;
  Alcotest.(check int) "lossless" 0 r.Baselines.Run_result.drops;
  (* 200 x 80 kbit over 2 Mbps = 8 s ideal *)
  Alcotest.(check bool)
    (Printf.sprintf "bottleneck-paced (%.2fs ~ 8s)" r.Baselines.Run_result.mean_fct)
    true
    (r.Baselines.Run_result.mean_fct > 7.5 && r.Baselines.Run_result.mean_fct < 10.)

let test_hbh_cannot_detour () =
  (* on fig3, HBH stays on the single path: INRPP must beat it *)
  let g = Topology.Builders.fig3 () in
  let hbh = C.run_one ~horizon:120. C.Hbh_proto g [ spec 0 3 200 ] in
  let inrpp =
    Baselines.Comparison.run_one ~cfg:bulk ~horizon:120. Baselines.Comparison.Inrpp_proto g
      [ spec 0 3 200 ]
  in
  Alcotest.(check int) "hbh done" 1 hbh.Baselines.Run_result.completed;
  Alcotest.(check bool)
    (Printf.sprintf "inrpp %.2fs beats hbh %.2fs"
       inrpp.Baselines.Run_result.mean_fct hbh.Baselines.Run_result.mean_fct)
    true
    (inrpp.Baselines.Run_result.mean_fct < hbh.Baselines.Run_result.mean_fct)

(* ------------------------------------------------------------------ *)
(* Comparison *)

let test_comparison_runs_all () =
  let g = Topology.Builders.fig3 () in
  let rows = Baselines.Comparison.run_all ~cfg:bulk ~horizon:120. g [ spec 0 3 150 ] in
  Alcotest.(check int) "five protocols" 5 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (r.Baselines.Run_result.protocol ^ " completes")
        1 r.Baselines.Run_result.completed)
    rows

let test_comparison_inrpp_avoids_drops () =
  (* the paper's core claim: INRPP moves traffic without packet drops
     where AIMD probing causes loss *)
  let g = Topology.Builders.fig3 () in
  let specs = [ spec 0 3 200 ] in
  let inrpp =
    Baselines.Comparison.run_one ~cfg:bulk ~horizon:120. Baselines.Comparison.Inrpp_proto g
      specs
  in
  let aimd =
    Baselines.Comparison.run_one ~cfg:bulk ~horizon:120. Baselines.Comparison.Aimd_proto g
      specs
  in
  Alcotest.(check int) "inrpp lossless" 0 inrpp.Baselines.Run_result.drops;
  Alcotest.(check bool)
    (Printf.sprintf "inrpp %.2fs beats aimd %.2fs"
       inrpp.Baselines.Run_result.mean_fct aimd.Baselines.Run_result.mean_fct)
    true
    (inrpp.Baselines.Run_result.mean_fct < aimd.Baselines.Run_result.mean_fct)

(* A hand-built spec skips [flow_spec]'s check; every protocol still
   rejects it, before any state exists, with the rule it breaks. *)
let test_comparison_rejects_malformed_specs () =
  let g = Topology.Builders.fig3 () in
  let ok = spec 0 3 10 in
  List.iter
    (fun (bad, rule) ->
      List.iter
        (fun p ->
          let name = Baselines.Comparison.name p in
          match Baselines.Comparison.run_one ~horizon:1. p g [ ok; bad ] with
          | _ -> Alcotest.failf "%s accepted a spec with %s" name rule
          | exception Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s names %S in %S" name rule msg)
              true
              (String.ends_with ~suffix:(": " ^ rule) msg))
        Baselines.Comparison.all)
    [ ({ ok with Inrpp.Protocol.dst = 0 }, "src = dst");
      ({ ok with Inrpp.Protocol.chunks = 0 }, "chunks <= 0");
      ({ ok with Inrpp.Protocol.start = -1. }, "negative or NaN start");
      ({ ok with Inrpp.Protocol.start = Float.nan }, "negative or NaN start") ]

(* The matched-scenario contract: [run_one ~workload] hands every
   protocol the flows [Inrpp.Protocol.run ~workload] generates itself,
   in the same order. *)
let test_comparison_matched_workload () =
  let g =
    Topology.Builders.dumbbell ~access_capacity:10e6 ~bottleneck_capacity:4e6 2
  in
  let workload =
    { Workload.Gen.default with
      Workload.Gen.horizon = 2.; max_requests = 12; chunk_max = 16 }
  in
  let direct = Inrpp.Protocol.run ~horizon:120. ~workload g [] in
  let flows = Array.length direct.Inrpp.Protocol.flows in
  Alcotest.(check bool) "workload generates flows" true (flows > 1);
  let inrpp =
    Baselines.Comparison.run_one ~horizon:120. ~workload
      Baselines.Comparison.Inrpp_proto g []
  in
  Alcotest.(check (array (option (float 0.)))) "same fcts"
    (Array.map (fun fr -> fr.Inrpp.Protocol.fct) direct.Inrpp.Protocol.flows)
    inrpp.Baselines.Run_result.fcts;
  let aimd =
    Baselines.Comparison.run_one ~horizon:120. ~workload
      Baselines.Comparison.Aimd_proto g []
  in
  Alcotest.(check int) "aimd flow count" flows aimd.Baselines.Run_result.flows

let test_comparison_names () =
  Alcotest.(check (list string)) "labels"
    [ "INRPP"; "AIMD"; "MPTCP"; "RCP"; "HBH" ]
    (List.map Baselines.Comparison.name Baselines.Comparison.all)

(* ------------------------------------------------------------------ *)
(* Run_result *)

let test_run_result_derivations () =
  let fcts = [| Some 2.; None; Some 4. |] in
  let r =
    Baselines.Run_result.make ~protocol:"X" ~fcts ~chunk_bits:1e3
      ~chunks:[| 100; 50; 100 |] ~drops:3 ~retransmissions:7 ~sim_time:10.
  in
  Alcotest.(check int) "completed" 2 r.Baselines.Run_result.completed;
  check_close "mean fct" 1e-9 3. r.Baselines.Run_result.mean_fct;
  check_close "goodput" 1e-6 2e4 r.Baselines.Run_result.goodput;
  Alcotest.(check bool) "jain accounts for the stuck flow" true
    (r.Baselines.Run_result.jain < 1.)

let test_run_result_validation () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Run_result.make: fcts/chunks length mismatch") (fun () ->
      ignore
        (Baselines.Run_result.make ~protocol:"X" ~fcts:[| None |]
           ~chunk_bits:1. ~chunks:[||] ~drops:0 ~retransmissions:0
           ~sim_time:1.))

let () =
  Alcotest.run "baselines"
    [
      ( "window",
        [
          Alcotest.test_case "slow start" `Quick test_window_slow_start;
          Alcotest.test_case "ca growth" `Quick test_window_ca_growth_rate;
          Alcotest.test_case "loss halves" `Quick test_window_loss_halves;
          Alcotest.test_case "rto" `Quick test_window_rto;
          Alcotest.test_case "coupled growth" `Quick test_window_coupled_growth;
        ] );
      ( "aimd",
        [
          Alcotest.test_case "clean path" `Quick test_aimd_completes_clean_path;
          Alcotest.test_case "bottleneck losses" `Quick test_aimd_losses_on_bottleneck;
          Alcotest.test_case "two flows fair" `Quick test_aimd_two_flows_fair;
        ] );
      ( "mptcp",
        [
          Alcotest.test_case "uses both paths" `Quick test_mptcp_uses_both_paths;
          Alcotest.test_case "single path degenerates" `Quick test_mptcp_single_path_degenerates;
        ] );
      ( "rcp",
        [
          Alcotest.test_case "completes paced" `Quick test_rcp_completes_and_paces;
          Alcotest.test_case "fair shares" `Quick test_rcp_fair_shares;
        ] );
      ( "hbh",
        [
          Alcotest.test_case "lossless bottleneck" `Quick test_hbh_lossless_on_bottleneck;
          Alcotest.test_case "cannot detour" `Quick test_hbh_cannot_detour;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "runs all" `Slow test_comparison_runs_all;
          Alcotest.test_case "inrpp avoids drops" `Slow test_comparison_inrpp_avoids_drops;
          Alcotest.test_case "names" `Quick test_comparison_names;
          Alcotest.test_case "matched workload" `Quick
            test_comparison_matched_workload;
          Alcotest.test_case "rejects malformed specs" `Quick
            test_comparison_rejects_malformed_specs;
        ] );
      ( "run_result",
        [
          Alcotest.test_case "derivations" `Quick test_run_result_derivations;
          Alcotest.test_case "validation" `Quick test_run_result_validation;
        ] );
    ]
