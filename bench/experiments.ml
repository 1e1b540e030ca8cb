(* Experiment implementations: regenerate every table and figure of
   the paper plus the repository's own ablations, and micro-benchmark
   the core primitives.  `bench/main.ml` is the CLI over this library;
   test/golden/dune diffs the CLI's artefact output against checked-in
   text, and {!capture} runs the same entries in-process.

   Experiment ids: table1 fig3 fig4a fig4b custody phases backpressure
   protocols resilience popularity ablation-detour ablation-ac micro.
   See
   DESIGN.md §5 and EXPERIMENTS.md for the paper-vs-measured
   record. *)

let section title =
  Format.printf "@.=== %s ===@.@." title

(* --sidecar FILE: machine-readable NDJSON next to the ASCII tables,
   one object per measured row, tagged with the experiment id *)
let sidecar : out_channel option ref = ref None

let set_sidecar oc = sidecar := Some oc

let close_sidecar () =
  match !sidecar with
  | Some oc ->
    close_out oc;
    sidecar := None
  | None -> ()

let sidecar_emit ~experiment fields =
  match !sidecar with
  | None -> ()
  | Some oc ->
    output_string oc
      (Obs.Json.to_string
         (Obs.Json.Obj (("experiment", Obs.Json.Str experiment) :: fields)));
    output_char oc '\n'

(* --domains N: sweep-shaped experiments fan their independent runs
   across this many domains (default 1).  Join order is job-index
   order and every order-sensitive effect (stdout, sidecar rows, the
   base-fct table) happens at join in the main domain, so output is
   byte-identical at any setting. *)
let domains_ref = ref 1

let set_domains d =
  if d < 1 then invalid_arg "Experiments.set_domains: domains < 1";
  domains_ref := d

let domains () = !domains_ref

(* ------------------------------------------------------------------ *)
(* Table 1: available detour paths in real topologies *)

let table1 () =
  section "Table 1 — Available detour paths (paper vs synthetic)";
  let profiles =
    List.map
      (fun isp ->
        (isp, Topology.Detour.classify_links (Topology.Isp_zoo.graph isp)))
      Topology.Isp_zoo.all
  in
  let rows =
    List.map
      (fun (isp, m) ->
        let p1, p2, p3, pna = Topology.Isp_zoo.table1_row isp in
        let cell paper mine = Printf.sprintf "%.2f/%.2f" paper (100. *. mine) in
        [
          Topology.Isp_zoo.name isp;
          cell p1 m.Topology.Detour.one_hop;
          cell p2 m.Topology.Detour.two_hop;
          cell p3 m.Topology.Detour.three_plus;
          cell pna m.Topology.Detour.unavailable;
        ])
      profiles
  in
  (* averages, the paper's last row *)
  let n = float_of_int (List.length profiles) in
  let avg f = 100. *. List.fold_left (fun a (_, p) -> a +. f p) 0. profiles /. n in
  let avg_row =
    [
      "Average";
      Printf.sprintf "52.80/%.2f" (avg (fun p -> p.Topology.Detour.one_hop));
      Printf.sprintf "30.86/%.2f" (avg (fun p -> p.Topology.Detour.two_hop));
      Printf.sprintf "3.24/%.2f" (avg (fun p -> p.Topology.Detour.three_plus));
      Printf.sprintf "13.10/%.2f" (avg (fun p -> p.Topology.Detour.unavailable));
    ]
  in
  Metrics.Report.table
    ~header:[ "ISP"; "1 hop (p/m)"; "2 hops (p/m)"; "3+ (p/m)"; "N/A (p/m)" ]
    (rows @ [ avg_row ])
    Format.std_formatter ()

(* ------------------------------------------------------------------ *)
(* Fig. 3: the fairness worked example *)

let fig3 () =
  section "Fig. 3 — e2e flow control vs INRPP (worked example)";
  let g = Topology.Builders.fig3 () in
  let pairs = [ (0, 3); (0, 1) ] in
  let e2e = Flowsim.Simulator.run_static g ~strategy:Flowsim.Routing.sp pairs in
  let inrp =
    Flowsim.Simulator.run_static g
      ~strategy:(Flowsim.Routing.Inrp Flowsim.Allocation.fig3_inrp)
      pairs
  in
  Metrics.Report.table
    ~header:[ "scheme"; "flow A (Mbps)"; "flow B (Mbps)"; "Jain" ]
    [
      [
        "e2e (paper: 2 / 8 / 0.73)";
        Printf.sprintf "%.2f" (e2e.(0) /. 1e6);
        Printf.sprintf "%.2f" (e2e.(1) /. 1e6);
        Printf.sprintf "%.3f" (Metrics.Fairness.jain e2e);
      ];
      [
        "INRPP (paper: 5 / 5 / 1.00)";
        Printf.sprintf "%.2f" (inrp.(0) /. 1e6);
        Printf.sprintf "%.2f" (inrp.(1) /. 1e6);
        Printf.sprintf "%.3f" (Metrics.Fairness.jain inrp);
      ];
    ]
    Format.std_formatter ()

(* ------------------------------------------------------------------ *)
(* Fig. 4: flow-level evaluation on Telstra / Exodus / Tiscali *)

let fig4_endpoints =
  Flowsim.Workload.Role_pairs [ Topology.Node.Core; Topology.Node.Aggregation ]

let fig4_demand = 6e9
let fig4_seeds = [ 1L; 2L; 3L ]

let fig4_ensemble =
  (* computed once, shared by fig4a and fig4b *)
  lazy
    (List.map
       (fun isp ->
         let g = Topology.Isp_zoo.graph isp in
         let nflows = 2 * Topology.Graph.node_count g in
         let run strategy =
           Flowsim.Snapshot.ensemble ~endpoints:fig4_endpoints ~strategy
             ~demand:fig4_demand ~nflows ~seeds:fig4_seeds g
         in
         ( isp,
           run Flowsim.Routing.sp,
           run Flowsim.Routing.ecmp,
           run Flowsim.Routing.inrp ))
       Topology.Isp_zoo.fig4_isps)

let fig4a () =
  section "Fig. 4a — Network throughput: SP vs ECMP vs INRP";
  Format.printf
    "(saturated snapshots: %d seeds, %.0f Gbps per-flow demand, PoP endpoints)@.@."
    (List.length fig4_seeds) (fig4_demand /. 1e9);
  let entries =
    List.concat_map
      (fun (isp, sp, ecmp, inrp) ->
        let nm = Topology.Isp_zoo.name isp in
        [
          (nm ^ " SP", sp.Flowsim.Snapshot.throughput);
          (nm ^ " ECMP", ecmp.Flowsim.Snapshot.throughput);
          (nm ^ " INRP", inrp.Flowsim.Snapshot.throughput);
        ])
      (Lazy.force fig4_ensemble)
  in
  Metrics.Report.bar_chart ~header:"network throughput (delivered/offered)"
    entries Format.std_formatter ();
  Format.printf "@.";
  Metrics.Report.table
    ~header:[ "ISP"; "SP"; "ECMP"; "INRP"; "INRP vs SP"; "detoured"; "stretch" ]
    (List.map
       (fun (isp, sp, ecmp, inrp) ->
         [
           Topology.Isp_zoo.name isp;
           Printf.sprintf "%.3f" sp.Flowsim.Snapshot.throughput;
           Printf.sprintf "%.3f" ecmp.Flowsim.Snapshot.throughput;
           Printf.sprintf "%.3f" inrp.Flowsim.Snapshot.throughput;
           Printf.sprintf "%+.1f%%"
             (100.
             *. (inrp.Flowsim.Snapshot.throughput
                 /. sp.Flowsim.Snapshot.throughput
                -. 1.));
           Metrics.Report.percent inrp.Flowsim.Snapshot.detoured_fraction;
           Printf.sprintf "%.3f" inrp.Flowsim.Snapshot.mean_stretch;
         ])
       (Lazy.force fig4_ensemble))
    Format.std_formatter ();
  Format.printf "@.(paper: INRP gains 9-15%% over SP; ECMP in between)@."

let fig4b () =
  section "Fig. 4b — INRP path-stretch CDF";
  let series =
    List.map
      (fun (isp, _, _, inrp) ->
        ( Topology.Isp_zoo.name isp,
          Sim.Stats.Samples.cdf ~points:40 inrp.Flowsim.Snapshot.stretch_samples
        ))
      (Lazy.force fig4_ensemble)
  in
  Metrics.Report.cdf_plot ~header:"P(stretch <= x)" series Format.std_formatter ();
  Format.printf "@.";
  Metrics.Report.table
    ~header:[ "ISP"; "P(=1.0)"; "P(<=1.05)"; "p90"; "p99"; "max" ]
    (List.map
       (fun (isp, _, _, inrp) ->
         let s = inrp.Flowsim.Snapshot.stretch_samples in
         [
           Topology.Isp_zoo.name isp;
           Printf.sprintf "%.2f" (Sim.Stats.Samples.cdf_at s 1.0);
           Printf.sprintf "%.2f" (Sim.Stats.Samples.cdf_at s 1.05);
           Printf.sprintf "%.3f" (Sim.Stats.Samples.percentile s 90.);
           Printf.sprintf "%.3f" (Sim.Stats.Samples.percentile s 99.);
           Printf.sprintf "%.3f" (Sim.Stats.Samples.percentile s 100.);
         ])
       (Lazy.force fig4_ensemble))
    Format.std_formatter ();
  Format.printf "@.(paper: CDF starts >= 0.5 at stretch 1.0, max ~1.35)@."

let fig4_all () =
  section "Extension — Fig. 4a across all nine ISPs";
  Format.printf
    "(does the INRP gain track each ISP's detour availability, as the      Table 1 -> Fig. 4 linkage implies?)@.@.";
  let rows =
    List.map
      (fun isp ->
        let g = Topology.Isp_zoo.graph isp in
        let nflows = 2 * Topology.Graph.node_count g in
        let run strategy =
          Flowsim.Snapshot.ensemble ~endpoints:fig4_endpoints ~strategy
            ~demand:fig4_demand ~nflows ~seeds:fig4_seeds g
        in
        let sp = run Flowsim.Routing.sp in
        let inrp = run Flowsim.Routing.inrp in
        let one_hop, _, _, _ = Topology.Isp_zoo.table1_row isp in
        ( isp,
          one_hop,
          sp.Flowsim.Snapshot.throughput,
          inrp.Flowsim.Snapshot.throughput ))
      Topology.Isp_zoo.all
  in
  Metrics.Report.table
    ~header:[ "ISP"; "1-hop detours"; "SP"; "INRP"; "gain" ]
    (List.map
       (fun (isp, one_hop, sp, inrp) ->
         [
           Topology.Isp_zoo.name isp;
           Printf.sprintf "%.1f%%" one_hop;
           Printf.sprintf "%.3f" sp;
           Printf.sprintf "%.3f" inrp;
           Printf.sprintf "%+.1f%%" (100. *. ((inrp /. sp) -. 1.));
         ])
       rows)
    Format.std_formatter ();
  (* rank correlation between detour availability and gain *)
  let gains = List.map (fun (_, oh, sp, inrp) -> (oh, (inrp /. sp) -. 1.)) rows in
  let rank xs =
    let sorted = List.sort compare xs in
    List.map (fun x ->
        let rec idx i = function
          | [] -> i
          | y :: _ when y = x -> i
          | _ :: rest -> idx (i + 1) rest
        in
        float_of_int (idx 0 sorted))
      xs
  in
  let rx = rank (List.map fst gains) and ry = rank (List.map snd gains) in
  let n = float_of_int (List.length gains) in
  let d2 =
    List.fold_left2 (fun acc a b -> acc +. ((a -. b) ** 2.)) 0. rx ry
  in
  let rho = 1. -. (6. *. d2 /. (n *. ((n *. n) -. 1.))) in
  Format.printf
    "@.Spearman rank correlation between 1-hop detour availability and      INRP gain: %.2f@."
    rho

(* ------------------------------------------------------------------ *)
(* §3.3 custody feasibility *)

let custody () =
  section "§3.3 — Custody holding time (cache size vs link rate)";
  let sizes = [ 1.; 10.; 100. ] in
  let rates = [ 1.; 10.; 40.; 100. ] in
  let rows =
    List.map
      (fun gb ->
        Printf.sprintf "%g GB" gb
        :: List.map
             (fun gbps ->
               let t =
                 Sim.Units.holding_time
                   ~cache_bits:(Sim.Units.gigabytes gb)
                   ~rate:(Sim.Units.gbps gbps)
               in
               Format.asprintf "%a" Sim.Units.pp_time t)
             rates)
      sizes
  in
  Metrics.Report.table
    ~header:("cache" :: List.map (fun r -> Printf.sprintf "%g Gbps" r) rates)
    rows Format.std_formatter ();
  Format.printf
    "@.(paper: \"a 10GB cache after a 40Gbps link can hold incoming traffic \
     for 2 seconds - much more than the average RTT\")@."

(* ------------------------------------------------------------------ *)
(* Protocol-behaviour experiments (chunk level) *)

let bulk = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 }

let bottleneck_graph () =
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "0" in
  let n1 = Topology.Graph.Builder.add_node b "1" in
  let n2 = Topology.Graph.Builder.add_node b "2" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  Topology.Graph.Builder.build b

let phases () =
  section "§3.3 — Interface phase machine under a demand ramp";
  let scenarios =
    [
      ("clean line (no congestion)",
       Topology.Builders.line ~capacity:10e6 ~delay:2e-3 3,
       [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ]);
      ("bottleneck, no detour (push->backpressure)",
       bottleneck_graph (),
       [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ]);
      ("fig3, detour available (push->detour)",
       Topology.Builders.fig3 (),
       [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300 ]);
    ]
  in
  let rows =
    List.map
      (fun (name, g, specs) ->
        (* interface entries into detour and back-pressure, counted as
           the run records them *)
        let trace = Chunksim.Trace.create () in
        let to_detour = ref 0 and to_bp = ref 0 in
        Chunksim.Trace.on_record trace (fun _ -> function
          | Chunksim.Trace.Phase_change { phase = Detour; _ } -> incr to_detour
          | Chunksim.Trace.Phase_change { phase = Backpressure; _ } ->
            incr to_bp
          | _ -> ());
        let r = Inrpp.Protocol.run ~cfg:bulk ~trace g specs in
        sidecar_emit ~experiment:"phases"
          [
            ("scenario", Obs.Json.Str name);
            ("to_detour", Obs.Json.Num (float_of_int !to_detour));
            ("to_backpressure", Obs.Json.Num (float_of_int !to_bp));
            ( "detoured",
              Obs.Json.Num (float_of_int r.Inrpp.Protocol.detoured) );
            ( "custody_stored",
              Obs.Json.Num (float_of_int r.Inrpp.Protocol.custody_stored) );
            ("drops", Obs.Json.Num (float_of_int r.Inrpp.Protocol.total_drops));
            ( "fct",
              match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
              | Some f -> Obs.Json.Num f
              | None -> Obs.Json.Null );
          ];
        [
          name;
          string_of_int !to_detour;
          string_of_int !to_bp;
          string_of_int r.Inrpp.Protocol.detoured;
          string_of_int r.Inrpp.Protocol.custody_stored;
          string_of_int r.Inrpp.Protocol.total_drops;
          (match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
          | Some f -> Printf.sprintf "%.2fs" f
          | None -> "-");
        ])
      scenarios
  in
  Metrics.Report.table
    ~header:
      [ "scenario"; "->detour"; "->bp"; "detoured"; "custody"; "drops"; "fct" ]
    rows Format.std_formatter ()

let backpressure () =
  section "§3.3 — Back-pressure keeps a 5x overload lossless";
  let g = bottleneck_graph () in
  let rows =
    List.map
      (fun (label, store_chunks) ->
        let cfg =
          {
            bulk with
            Inrpp.Config.cache_bits =
              store_chunks *. bulk.Inrpp.Config.chunk_bits;
          }
        in
        let r =
          Inrpp.Protocol.run ~cfg g [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ]
        in
        sidecar_emit ~experiment:"backpressure"
          [
            ("store_chunks", Obs.Json.Num store_chunks);
            ( "bp_engages",
              Obs.Json.Num (float_of_int r.Inrpp.Protocol.bp_engages) );
            ( "bp_releases",
              Obs.Json.Num (float_of_int r.Inrpp.Protocol.bp_releases) );
            ("peak_custody_bits", Obs.Json.Num r.Inrpp.Protocol.peak_custody_bits);
            ("drops", Obs.Json.Num (float_of_int r.Inrpp.Protocol.total_drops));
            ( "fct",
              match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
              | Some f -> Obs.Json.Num f
              | None -> Obs.Json.Null );
          ];
        [
          label;
          string_of_int r.Inrpp.Protocol.bp_engages;
          string_of_int r.Inrpp.Protocol.bp_releases;
          Format.asprintf "%a" Sim.Units.pp_size r.Inrpp.Protocol.peak_custody_bits;
          string_of_int r.Inrpp.Protocol.total_drops;
          (match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
          | Some f -> Printf.sprintf "%.2fs" f
          | None -> "-");
        ])
      [ ("store = 20 chunks", 20.); ("store = 100 chunks", 100.);
        ("store = 400 chunks", 400.) ]
  in
  Metrics.Report.table
    ~header:[ "custody store"; "bp on"; "bp off"; "peak custody"; "drops"; "fct" ]
    rows Format.std_formatter ();
  Format.printf
    "@.(ideal single-path fct is 8.0 s at the 2 Mbps bottleneck; a smaller \
     store engages back-pressure earlier but never drops)@."

let protocols () =
  section "Protocol comparison — INRPP vs AIMD / MPTCP / RCP / HBH";
  let scenarios =
    [
      ("fig3, 2 flows (A: 0->3 through the bottleneck, B: 0->1)",
       Topology.Builders.fig3 (),
       [
         Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300;
         Inrpp.Protocol.flow_spec ~src:0 ~dst:1 300;
       ]);
      ("dumbbell, 4 flows over a shared 5 Mbps bottleneck",
       Topology.Builders.dumbbell ~access_capacity:10e6
         ~bottleneck_capacity:5e6 4,
       List.init 4 (fun i -> Inrpp.Protocol.flow_spec ~src:(2 + i) ~dst:(6 + i) 150));
    ]
  in
  List.iter
    (fun (name, g, specs) ->
      Format.printf "%s:@." name;
      let rows = Baselines.Comparison.run_all ~cfg:bulk ~horizon:120. g specs in
      List.iter
        (fun row ->
          match Baselines.Run_result.to_json row with
          | Obs.Json.Obj fields ->
            sidecar_emit ~experiment:"protocols"
              (("scenario", Obs.Json.Str name) :: fields)
          | j -> sidecar_emit ~experiment:"protocols" [ ("result", j) ])
        rows;
      Baselines.Run_result.pp_table Format.std_formatter rows;
      Format.printf "@.")
    scenarios;
  Format.printf
    "(the paper's claim: in-network resource pooling moves traffic faster \
     than e2e closed-loop control, without packet drops)@."

let icn_cache () =
  section "Extension — custody + popularity caching compose (ICN role)";
  Format.printf
    "(the paper notes no ICN transport had been evaluated together with      caches; here the same store serves both roles)@.@.";
  let g = Topology.Builders.line ~capacity:10e6 ~delay:5e-3 5 in
  let run icn =
    let cfg =
      {
        bulk with
        Inrpp.Config.icn_caching = icn;
        cache_bits = 64e6;
      }
    in
    Inrpp.Protocol.run ~cfg g
      [
        Inrpp.Protocol.flow_spec ~content:42 ~src:0 ~dst:4 200;
        Inrpp.Protocol.flow_spec ~content:42 ~start:3. ~src:0 ~dst:4 200;
      ]
  in
  let rows =
    List.map
      (fun (label, icn) ->
        let r = run icn in
        let fct i =
          match r.Inrpp.Protocol.flows.(i).Inrpp.Protocol.fct with
          | Some f -> Printf.sprintf "%.3fs" f
          | None -> "-"
        in
        [ label; fct 0; fct 1; string_of_int r.Inrpp.Protocol.cache_hits ])
      [ ("custody only", false); ("custody + ICN caching", true) ]
  in
  Metrics.Report.table
    ~header:[ "mode"; "1st fetch"; "repeat fetch"; "cache hits" ]
    rows Format.std_formatter ();
  Format.printf
    "@.(the repeat fetch of the same content is served by on-path copies      instead of crossing the network again)@."

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_detour () =
  section "Ablation — detour depth and recursion (flow level, Telstra)";
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Telstra in
  let nflows = 2 * Topology.Graph.node_count g in
  let variants =
    [
      ("no detours", { Flowsim.Allocation.default_inrp with max_detour = 0 });
      ("1-hop only",
       { Flowsim.Allocation.default_inrp with max_detour = 1; allow_further = false });
      ("1-hop + recursion (paper)", Flowsim.Allocation.default_inrp);
    ]
  in
  let sp =
    Flowsim.Snapshot.ensemble ~endpoints:fig4_endpoints
      ~strategy:Flowsim.Routing.sp ~demand:fig4_demand ~nflows
      ~seeds:fig4_seeds g
  in
  let rows =
    (("SP baseline", sp)
    :: List.map
         (fun (label, opts) ->
           ( label,
             Flowsim.Snapshot.ensemble ~endpoints:fig4_endpoints
               ~strategy:(Flowsim.Routing.Inrp opts) ~demand:fig4_demand
               ~nflows ~seeds:fig4_seeds g ))
         variants)
    |> List.map (fun (label, r) ->
           [
             label;
             Printf.sprintf "%.3f" r.Flowsim.Snapshot.throughput;
             Metrics.Report.percent r.Flowsim.Snapshot.detoured_fraction;
             Printf.sprintf "%.3f" r.Flowsim.Snapshot.mean_stretch;
           ])
  in
  Metrics.Report.table ~header:[ "variant"; "throughput"; "detoured"; "stretch" ]
    rows Format.std_formatter ()

let ablation_ac () =
  section "Ablation — anticipated-data window Ac (chunk level, fig3)";
  let g = Topology.Builders.fig3 () in
  let rows =
    List.map
      (fun ac ->
        let cfg = { Inrpp.Config.default with Inrpp.Config.anticipation = ac } in
        let r =
          Inrpp.Protocol.run ~cfg g [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300 ]
        in
        [
          string_of_int ac;
          (match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
          | Some f -> Printf.sprintf "%.2fs" f
          | None -> "-");
          string_of_int r.Inrpp.Protocol.detoured;
          Format.asprintf "%a" Sim.Units.pp_size r.Inrpp.Protocol.peak_custody_bits;
          string_of_int r.Inrpp.Protocol.total_drops;
        ])
      [ 2; 8; 32; 128; 512 ]
  in
  Metrics.Report.table
    ~header:[ "Ac"; "fct"; "detoured"; "peak custody"; "drops" ]
    rows Format.std_formatter ();
  Format.printf
    "@.(a small Ac self-clocks at the bottleneck rate; a large Ac lets the \
     open loop fill the detour path too — 24 Mbit over 2 Mbps alone is 12 s)@."

let ablation_sched () =
  section "Ablation — FIFO vs round-robin interface scheduling";
  Format.printf
    "(§3.3: routers multiplex flows round-robin; two flows share the fig3      network, flow B being a short-path burst source)@.@.";
  let g = Topology.Builders.fig3 () in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~src:0 ~dst:3 200;
      Inrpp.Protocol.flow_spec ~src:0 ~dst:1 400;
    ]
  in
  let rows =
    List.map
      (fun (label, drr) ->
        let cfg = { bulk with Inrpp.Config.drr_scheduler = drr } in
        let r = Inrpp.Protocol.run ~cfg g specs in
        let rates =
          Array.map
            (fun fr ->
              match fr.Inrpp.Protocol.fct with
              | Some fct ->
                float_of_int fr.Inrpp.Protocol.chunks_received
                *. cfg.Inrpp.Config.chunk_bits /. fct
              | None -> 0.)
            r.Inrpp.Protocol.flows
        in
        let fct i =
          match r.Inrpp.Protocol.flows.(i).Inrpp.Protocol.fct with
          | Some f -> Printf.sprintf "%.2fs" f
          | None -> "-"
        in
        [
          label;
          fct 0;
          fct 1;
          Printf.sprintf "%.3f" (Metrics.Fairness.jain rates);
          string_of_int r.Inrpp.Protocol.total_drops;
        ])
      [ ("FIFO", false); ("DRR (paper)", true) ]
  in
  Metrics.Report.table
    ~header:[ "scheduler"; "fct A"; "fct B"; "jain(rate)"; "drops" ]
    rows Format.std_formatter ()

(* PIT-less ablation: the same transfers with Config.pitless on — no
   per-flow router state at all, forwarding rides in the packets as
   source-routed label stacks — against the stateful default.  The
   delta is the price of statelessness: everything the paper builds on
   per-flow state (custody, detours, back-pressure) is structurally
   unavailable, so congestion turns into queue drops and timeouts. *)
let ablation_pitless () =
  section "Ablation — PIT-less forwarding vs per-flow state";
  Format.printf
    "(Config.pitless stamps the full path onto every packet as a label@.\
     stack — routers keep zero flow state, and with it lose custody,@.\
     detours and back-pressure)@.@.";
  let scenarios =
    [
      ("bottleneck 5x overload",
       bottleneck_graph (),
       [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ]);
      ("fig3, detour available",
       Topology.Builders.fig3 (),
       [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300 ]);
    ]
  in
  List.iter
    (fun (label, g, specs) ->
      Format.printf "%s:@." label;
      let rows =
        List.map
          (fun (variant, pitless) ->
            let cfg = { bulk with Inrpp.Config.pitless } in
            let r = Inrpp.Protocol.run ~cfg ~horizon:120. g specs in
            let fct =
              match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
              | Some f -> Printf.sprintf "%.2fs" f
              | None -> "-"
            in
            let requests =
              Array.fold_left
                (fun acc (fr : Inrpp.Protocol.flow_result) ->
                  acc + fr.Inrpp.Protocol.requests_sent)
                0 r.Inrpp.Protocol.flows
            in
            sidecar_emit ~experiment:"pitless"
              [
                ("scenario", Obs.Json.Str label);
                ("variant", Obs.Json.Str variant);
                ( "completed",
                  Obs.Json.Num (float_of_int r.Inrpp.Protocol.completed) );
                ( "fct",
                  match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
                  | Some f -> Obs.Json.Num f
                  | None -> Obs.Json.Null );
                ("goodput_bps", Obs.Json.Num r.Inrpp.Protocol.goodput);
                ( "drops",
                  Obs.Json.Num (float_of_int r.Inrpp.Protocol.total_drops) );
                ( "detoured",
                  Obs.Json.Num (float_of_int r.Inrpp.Protocol.detoured) );
                ( "custody_stored",
                  Obs.Json.Num (float_of_int r.Inrpp.Protocol.custody_stored)
                );
                ( "flow_table_bytes",
                  Obs.Json.Num (float_of_int r.Inrpp.Protocol.flow_table_bytes)
                );
                ("requests_sent", Obs.Json.Num (float_of_int requests));
              ];
            [
              variant;
              fct;
              Format.asprintf "%a" Sim.Units.pp_rate r.Inrpp.Protocol.goodput;
              string_of_int r.Inrpp.Protocol.total_drops;
              string_of_int r.Inrpp.Protocol.detoured;
              string_of_int r.Inrpp.Protocol.custody_stored;
              string_of_int r.Inrpp.Protocol.flow_table_bytes;
              string_of_int requests;
            ])
          [ ("stateful", false); ("PIT-less", true) ]
      in
      Metrics.Report.table
        ~header:
          [ "variant"; "fct"; "goodput"; "drops"; "detoured"; "custody";
            "flow-state B"; "requests" ]
        rows Format.std_formatter ())
    scenarios;
  Format.printf
    "@.(the stateful rows absorb the overload in custody and detours —@.\
     zero drops; PIT-less pays with drops, re-requests and a longer@.\
     fct, but its routers hold ~0 flow-state bytes)@."

let fct () =
  section "Extension — flow completion time under churn (DES)";
  Format.printf
    "(the paper expects the Fig. 4a utilisation gain \"to translate to \
     faster flow completion time by the same proportion\"; Poisson \
     arrivals between VSNL PoP routers, exponential 500 Mbit flows)@.@.";
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Vsnl in
  let eps =
    Flowsim.Workload.Role_pairs [ Topology.Node.Core; Topology.Node.Aggregation ]
  in
  let results =
    List.map
      (fun strategy ->
        let cfg =
          Flowsim.Simulator.config ~strategy ~arrival_rate:100. ~endpoints:eps
            ~size:(Flowsim.Workload.Exponential 500e6) ~warmup:1. ~duration:5.
            ~seed:5L ~max_active:500 ()
        in
        Flowsim.Simulator.run g cfg)
      [ Flowsim.Routing.sp; Flowsim.Routing.ecmp; Flowsim.Routing.inrp ]
  in
  List.iter
    (fun (r : Flowsim.Results.t) ->
      sidecar_emit ~experiment:"fct"
        [
          ("strategy", Obs.Json.Str r.Flowsim.Results.strategy);
          ("arrivals", Obs.Json.Num (float_of_int r.Flowsim.Results.arrivals));
          ( "completions",
            Obs.Json.Num (float_of_int r.Flowsim.Results.completions) );
          ("throughput", Obs.Json.Num r.Flowsim.Results.throughput);
          ("mean_fct", Obs.Json.Num r.Flowsim.Results.mean_fct);
          ("p95_fct", Obs.Json.Num r.Flowsim.Results.p95_fct);
          ("mean_active", Obs.Json.Num r.Flowsim.Results.mean_active);
          ("mean_stretch", Obs.Json.Num r.Flowsim.Results.mean_stretch);
        ])
    results;
  Flowsim.Results.pp_table Format.std_formatter results;
  match results with
  | [ sp; _; inrp ] when sp.Flowsim.Results.mean_fct > 0. ->
    Format.printf "@.INRP mean FCT is %.1f%% lower than SP@."
      (100.
      *. (1. -. (inrp.Flowsim.Results.mean_fct /. sp.Flowsim.Results.mean_fct)))
  | _ -> ()

let loss () =
  section "Extension — failure injection: recovery under random wire loss";
  Format.printf
    "(the paper handles loss with explicit timers/NACKs instead of      treating it as congestion; 200-chunk transfer over a 3-hop line)@.@.";
  let g = Topology.Builders.line ~capacity:10e6 ~delay:2e-3 4 in
  let rows =
    List.map
      (fun rate ->
        let r =
          Inrpp.Protocol.run ~cfg:bulk ~loss_rate:rate ~horizon:120. g
            [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 200 ]
        in
        let fr = r.Inrpp.Protocol.flows.(0) in
        [
          Metrics.Report.percent rate;
          (match fr.Inrpp.Protocol.fct with
          | Some f -> Printf.sprintf "%.2fs" f
          | None -> "incomplete");
          string_of_int fr.Inrpp.Protocol.chunks_received;
          string_of_int fr.Inrpp.Protocol.duplicates;
          string_of_int fr.Inrpp.Protocol.requests_sent;
        ])
      [ 0.; 0.005; 0.02; 0.05 ]
  in
  Metrics.Report.table
    ~header:[ "wire loss"; "fct"; "received"; "dup"; "requests" ]
    rows Format.std_formatter ();
  Format.printf
    "@.(every transfer completes: the receiver's request timeout re-asks      for the lowest missing chunk and the sender retransmits on repeated Nc)@."

let resilience_grid ?(stores = [ 100.; 400. ]) ?(levels = [ 0; 2; 4 ])
    ?(isp = true) () =
  section "Extension — resilience: link outages and router crashes";
  Format.printf
    "(one fault schedule replays identically against every protocol; INRPP \
     recovers in-network — detour failover and custody — while the \
     baselines rely on end-to-end retransmission)@.@.";
  let chunk_bits = Inrpp.Config.default.Inrpp.Config.chunk_bits in
  let horizon = 90. in
  let isp_kind = Topology.Isp_zoo.Vsnl in
  let isp_g = Topology.Isp_zoo.graph isp_kind in
  let isp_specs =
    (* deterministic routable pairs: outermost node ids pairing inward *)
    let n = Topology.Graph.node_count isp_g in
    let rec pick acc count k =
      if count >= 3 || k >= n / 2 then List.rev acc
      else
        let src = k and dst = n - 1 - k in
        match Topology.Dijkstra.shortest_path isp_g src dst with
        | Some _ ->
          pick
            (Inrpp.Protocol.flow_spec ~src ~dst 2000 :: acc)
            (count + 1) (k + 1)
        | None -> pick acc count (k + 1)
    in
    pick [] 0 0
  in
  (* the schedule window must overlap the transfers, so each scenario
     names the rough no-fault completion time its faults land inside *)
  let scenarios =
    ( "dumbbell, 4 flows over a shared 5 Mbps bottleneck",
      Topology.Builders.dumbbell ~access_capacity:10e6 ~bottleneck_capacity:5e6
        4,
      List.init 4 (fun i -> Inrpp.Protocol.flow_spec ~src:(2 + i) ~dst:(6 + i) 200),
      12. )
    ::
    (if isp then
       [
         ( Printf.sprintf "%s (synthetic ISP), %d flows"
             (Topology.Isp_zoo.name isp_kind)
             (List.length isp_specs),
           isp_g,
           isp_specs,
           1. );
       ]
     else [])
  in
  (* The whole grid is one flat job list: every (scenario, level,
     protocol-variant) run is independent.  Jobs share only immutable
     values — graphs are frozen after build, Fault.Schedule is an
     immutable event list — so they fan out across [domains ()] via
     Parallel.Pool, while everything order-sensitive (stdout, the
     base-fct/inflation table, sidecar rows) happens here at join in
     job-index order.  Output is byte-identical at any domain count. *)
  let grid =
    List.map
      (fun (name, g, specs, sched_horizon) ->
        let sched level =
          if level = 0 then Fault.Schedule.empty
          else
            Fault.Schedule.random
              ~seed:(Int64.of_int (31 + (7 * level)))
              ~link_outages:level
              ~crashes:(if level >= 4 then 1 else 0)
              ~horizon:sched_horizon g
        in
        let runs =
          List.concat_map
            (fun level ->
              let faults = sched level in
              List.map
                (fun store ->
                  (* self-clocked Ac (default) rather than [bulk]'s
                     open-loop push: recovery dynamics, not open-loop
                     buffering, are what this experiment measures *)
                  let cfg =
                    {
                      Inrpp.Config.default with
                      Inrpp.Config.cache_bits = store *. chunk_bits;
                      timeout_backoff = 2.;
                    }
                  in
                  ( Printf.sprintf "INRPP store=%d" (int_of_float store),
                    level,
                    fun () ->
                      Baselines.Comparison.run_one ~cfg ~horizon ~faults
                        Baselines.Comparison.Inrpp_proto g specs ))
                stores
              @ List.map
                  (fun p ->
                    ( Baselines.Comparison.name p,
                      level,
                      fun () ->
                        Baselines.Comparison.run_one ~horizon ~faults p g specs
                    ))
                  [
                    Baselines.Comparison.Aimd_proto;
                    Baselines.Comparison.Mptcp_proto;
                  ])
            levels
        in
        (name, runs))
      scenarios
  in
  let results =
    Parallel.Pool.run_jobs ~domains:(domains ())
      (Array.of_list
         (List.concat_map (fun (_, runs) -> List.map (fun (_, _, j) -> j) runs)
            grid))
  in
  let cursor = ref 0 in
  List.iter
    (fun (name, runs) ->
      Format.printf "%s:@." name;
      (* each protocol's no-fault mean fct is its inflation denominator *)
      let base_fct : (string, float) Hashtbl.t = Hashtbl.create 8 in
      let rows = ref [] in
      let record key level (r : Baselines.Run_result.t) =
        let mean = r.Baselines.Run_result.mean_fct in
        if level = 0 && mean > 0. then Hashtbl.replace base_fct key mean;
        let inflation =
          match Hashtbl.find_opt base_fct key with
          | Some b when mean > 0. && b > 0. -> mean /. b
          | _ -> Float.nan
        in
        sidecar_emit ~experiment:"resilience"
          [
            ("scenario", Obs.Json.Str name);
            ("protocol", Obs.Json.Str key);
            ("outages", Obs.Json.Num (float_of_int level));
            ( "completed",
              Obs.Json.Num (float_of_int r.Baselines.Run_result.completed) );
            ("flows", Obs.Json.Num (float_of_int r.Baselines.Run_result.flows));
            ("mean_fct", if mean > 0. then Obs.Json.Num mean else Obs.Json.Null);
            ( "inflation",
              if Float.is_nan inflation then Obs.Json.Null
              else Obs.Json.Num inflation );
          ];
        rows :=
          [
            key;
            string_of_int level;
            Printf.sprintf "%d/%d" r.Baselines.Run_result.completed
              r.Baselines.Run_result.flows;
            (if mean > 0. then Printf.sprintf "%.2fs" mean else "-");
            (if Float.is_nan inflation then "-"
             else Printf.sprintf "%.2fx" inflation);
          ]
          :: !rows
      in
      List.iter
        (fun (key, level, _) ->
          record key level results.(!cursor);
          incr cursor)
        runs;
      Metrics.Report.table
        ~header:[ "protocol"; "outages"; "done"; "mean fct"; "inflation" ]
        (List.rev !rows) Format.std_formatter ();
      Format.printf "@.")
    grid;
  Format.printf
    "(custody holds chunks through an outage and detours route around it, \
     so INRPP completes where end-to-end recovery must re-probe after \
     every timeout)@."

let resilience () = resilience_grid ()

(* ------------------------------------------------------------------ *)
(* Workload-driven popularity experiment *)

(* One generated request mix (Zipf catalogue, open-loop Poisson
   sessions with a flash crowd) replayed at several catalogue skews
   against several custody-store sizes: the custody-vs-popularity
   contention inside Chunksim.Cache.  A skewed catalogue makes the
   popularity (LRU) region valuable exactly when back-pressure wants
   the same bytes for custody. *)
let popularity_workload alpha =
  {
    Workload.Gen.default with
    Workload.Gen.seed = 11L;
    horizon = 8.;
    max_requests = 64;
    objects = 24;
    alpha;
    chunk_min = 4;
    chunk_max = 32;
    chunk_shape = 1.2;
    rate = 6.;
    (* a 3x flash crowd mid-window: the open-loop burst the ICN
       caching literature stresses caches with *)
    bursts = [ Workload.Arrivals.burst ~at:2. ~duration:1.5 ~boost:3. ];
    producers = [ Topology.Node.Host ];
    consumers = [ Topology.Node.Host ];
  }

(* mean FCT over an INRPP run's completed flows; NaN if none completed *)
let inrpp_mean_fct (r : Inrpp.Protocol.result) =
  let fcts =
    Array.to_list r.Inrpp.Protocol.flows
    |> List.filter_map (fun fr -> fr.Inrpp.Protocol.fct)
  in
  if fcts = [] then Float.nan
  else List.fold_left ( +. ) 0. fcts /. float_of_int (List.length fcts)

let popularity () =
  let alphas = [ 0.4; 0.8; 1.2 ] and stores = [ 60.; 240. ] in
  section "Extension — content popularity: catalogue skew x custody store";
  Format.printf
    "(Zipf(a) catalogue over 24 objects, open-loop Poisson sessions with a \
     3x flash crowd, dumbbell hosts; INRPP runs with ICN caching on, so \
     custody and popularity compete for the same store — the pull baseline \
     has no in-network storage at all)@.@.";
  let chunk_bits = Inrpp.Config.default.Inrpp.Config.chunk_bits in
  let horizon = 90. in
  let g =
    Topology.Builders.dumbbell ~access_capacity:10e6
      ~bottleneck_capacity:1.5e6 4
  in
  (* every (alpha, variant) cell is an independent job sharing only the
     immutable graph and workload specs; generation is a pure function
     of (spec, graph), so the fan-out is byte-identical at any
     [domains ()] — the same contract as the resilience grid *)
  let grid =
    List.map
      (fun alpha ->
        let wl = popularity_workload alpha in
        let inrpp store () =
          let cfg =
            {
              Inrpp.Config.default with
              Inrpp.Config.cache_bits = store *. chunk_bits;
              icn_caching = true;
            }
          in
          let r = Inrpp.Protocol.run ~cfg ~horizon ~workload:wl g [] in
          ( r.Inrpp.Protocol.completed,
            Array.length r.Inrpp.Protocol.flows,
            inrpp_mean_fct r,
            Some
              ( r.Inrpp.Protocol.cache_hits,
                r.Inrpp.Protocol.custody_stored,
                r.Inrpp.Protocol.bp_engages ),
            r.Inrpp.Protocol.total_drops )
        in
        let pull () =
          let r =
            Baselines.Comparison.run_one ~horizon ~workload:wl
              Baselines.Comparison.Aimd_proto g []
          in
          ( r.Baselines.Run_result.completed,
            r.Baselines.Run_result.flows,
            r.Baselines.Run_result.mean_fct,
            None,
            r.Baselines.Run_result.drops )
        in
        ( alpha,
          ("AIMD (pull)", pull)
          :: List.map
               (fun store ->
                 ( Printf.sprintf "INRPP store=%d" (int_of_float store),
                   inrpp store ))
               stores ))
      alphas
  in
  let results =
    Parallel.Pool.run_jobs ~domains:(domains ())
      (Array.of_list
         (List.concat_map (fun (_, cells) -> List.map snd cells) grid))
  in
  let cursor = ref 0 in
  let rows = ref [] in
  List.iter
    (fun (alpha, cells) ->
      List.iter
        (fun (label, _) ->
          let completed, flows, mean_fct, store_stats, drops =
            results.(!cursor)
          in
          incr cursor;
          let custody, bp =
            match store_stats with
            | Some (_, c, b) -> (c, b)
            | None -> (0, 0)
          in
          sidecar_emit ~experiment:"popularity"
            [
              ("alpha", Obs.Json.Num alpha);
              ("protocol", Obs.Json.Str label);
              ("completed", Obs.Json.Num (float_of_int completed));
              ("flows", Obs.Json.Num (float_of_int flows));
              ( "mean_fct",
                if Float.is_nan mean_fct || mean_fct <= 0. then Obs.Json.Null
                else Obs.Json.Num mean_fct );
              ( "cache_hits",
                match store_stats with
                | Some (h, _, _) -> Obs.Json.Num (float_of_int h)
                | None -> Obs.Json.Null );
              ("custody_stored", Obs.Json.Num (float_of_int custody));
              ("bp_engages", Obs.Json.Num (float_of_int bp));
              ("drops", Obs.Json.Num (float_of_int drops));
            ];
          rows :=
            [
              Printf.sprintf "%.1f" alpha;
              label;
              Printf.sprintf "%d/%d" completed flows;
              (if Float.is_nan mean_fct || mean_fct <= 0. then "-"
               else Printf.sprintf "%.2fs" mean_fct);
              (match store_stats with
              | Some (h, _, _) -> string_of_int h
              | None -> "-");
              (match store_stats with
              | Some (_, c, _) -> string_of_int c
              | None -> "-");
              (match store_stats with
              | Some (_, _, b) -> string_of_int b
              | None -> "-");
              string_of_int drops;
            ]
            :: !rows)
        cells)
    grid;
  Metrics.Report.table
    ~header:
      [ "alpha"; "protocol"; "done"; "mean fct"; "hits"; "custody"; "bp on";
        "drops" ]
    (List.rev !rows) Format.std_formatter ();
  Format.printf
    "@.(a hotter catalogue turns repeat fetches into on-path cache hits — \
     custody and the LRU share one byte budget, and custody always wins \
     admission — while the pull baseline re-crosses the bottleneck for \
     every copy)@."

(* ------------------------------------------------------------------ *)
(* Overload control under flash crowds *)

(* Flash-crowd intensity x custody-store size x admission policy, with
   the whole graceful-degradation layer on or off: the paper's claim
   is that pooled in-network resources absorb transient surges, and
   this grid probes the regime where the surge exceeds pooled capacity
   — control-off collapses (store overflow drops, retransmission
   storms), control-on degrades (shed early, back-pressure early,
   break the retry loop) and recovers, with the watchdog measuring
   time-to-recovery. *)
let overload_workload boost =
  {
    Workload.Gen.default with
    Workload.Gen.seed = 23L;
    horizon = 8.;
    max_requests = 96;
    objects = 24;
    alpha = 0.8;
    chunk_min = 4;
    chunk_max = 32;
    chunk_shape = 1.2;
    rate = 6.;
    bursts = [ Workload.Arrivals.burst ~at:2. ~duration:2. ~boost ];
    producers = [ Topology.Node.Host ];
    consumers = [ Topology.Node.Host ];
  }

(* Jain's index over an INRPP run's per-flow rates (completed flows
   with a positive FCT); 0 if there are none *)
let inrpp_jain ~chunk_bits (r : Inrpp.Protocol.result) =
  let open Inrpp.Protocol in
  let rates =
    Array.to_list r.flows
    |> List.filter_map (fun fr ->
           match fr.fct with
           | Some fct when fct > 0. ->
             Some (float_of_int fr.spec.chunks *. chunk_bits /. fct)
           | _ -> None)
  in
  if rates = [] then 0. else Metrics.Fairness.jain (Array.of_list rates)

let overload () =
  let boosts = [ 2.; 8. ] and stores = [ 40.; 120. ] in
  section "Extension — overload control: flash-crowd intensity x store x policy";
  Format.printf
    "(open-loop Poisson sessions with a mid-window flash crowd on a \
     dumbbell; 'off' is INRPP without overload control, the policy \
     variants run admission control + load shedding + early back-pressure \
     + circuit breaker + collapse watchdog; AIMD/MPTCP are the pull \
     baselines)@.@.";
  let chunk_bits = Inrpp.Config.default.Inrpp.Config.chunk_bits in
  let horizon = 90. in
  let g =
    Topology.Builders.dumbbell ~access_capacity:10e6
      ~bottleneck_capacity:1.5e6 4
  in
  let control label admission = (label, Some (Overload.Config.On admission)) in
  let variants =
    [
      ("INRPP off", None);
      control "INRPP drop-tail" Overload.Config.Drop_tail;
      control "INRPP object-runs" Overload.Config.Object_runs;
      control "INRPP fair-share" Overload.Config.Fair_share;
    ]
  in
  let inrpp wl store overload () =
    let cfg =
      {
        Inrpp.Config.default with
        Inrpp.Config.cache_bits = store *. chunk_bits;
      }
    in
    let r = Inrpp.Protocol.run ~cfg ~horizon ~workload:wl ?overload g [] in
    let open Inrpp.Protocol in
    ( r.completed,
      Array.length r.flows,
      inrpp_mean_fct r,
      r.goodput,
      inrpp_jain ~chunk_bits r,
      Some (r.shed, r.detours_refused, r.collapse_episodes,
            r.collapse_recovery_time),
      r.total_drops )
  in
  let baseline wl proto () =
    let r = Baselines.Comparison.run_one ~horizon ~workload:wl proto g [] in
    let open Baselines.Run_result in
    ( r.completed,
      r.flows,
      r.mean_fct,
      r.goodput,
      r.jain,
      None,
      r.drops )
  in
  (* [baseline] takes no store and passes [run_one] no [cfg], so an
     AIMD or MPTCP result depends on the crowd alone: each runs once
     per crowd and its row repeats under every store *)
  let pulls =
    [
      ("AIMD (pull)", Baselines.Comparison.Aimd_proto);
      ("MPTCP", Baselines.Comparison.Mptcp_proto);
    ]
  in
  let jobs_of boost =
    let wl = overload_workload boost in
    List.concat_map
      (fun store -> List.map (fun (_, ov) -> inrpp wl store ov) variants)
      stores
    @ List.map (fun (_, proto) -> baseline wl proto) pulls
  in
  let results =
    Parallel.Pool.run_jobs ~domains:(domains ())
      (Array.of_list (List.concat_map jobs_of boosts))
  in
  (* rows in table order, each with the index of its job in
     [jobs_of]'s layout: every store's INRPP variants, then the pulls *)
  let nv = List.length variants and ns = List.length stores in
  let per_boost = (ns * nv) + List.length pulls in
  let grid =
    List.concat
      (List.mapi
         (fun bi boost ->
           let base = bi * per_boost in
           List.mapi
             (fun si store ->
               ( boost,
                 store,
                 List.mapi
                   (fun vi (label, _) -> (label, base + (si * nv) + vi))
                   variants
                 @ List.mapi
                     (fun pi (label, _) -> (label, base + (ns * nv) + pi))
                     pulls ))
             stores)
         boosts)
  in
  let rows = ref [] in
  (* goodput of the control-off INRPP run per (boost, store), for the
     retention summary below *)
  let off_goodput = Hashtbl.create 8 in
  let on_goodput = Hashtbl.create 8 in
  List.iter
    (fun (boost, store, cells) ->
      List.iter
        (fun (label, k) ->
          let completed, flows, mean_fct, goodput, jain, ovstats, drops =
            results.(k)
          in
          if label = "INRPP off" then
            Hashtbl.replace off_goodput (boost, store) goodput;
          if label = "INRPP object-runs" then
            Hashtbl.replace on_goodput (boost, store) goodput;
          let recovery =
            match ovstats with
            | Some (_, _, _, Some t) -> Printf.sprintf "%.2fs" t
            | Some (_, _, _, None) | None -> "-"
          in
          sidecar_emit ~experiment:"overload"
            [
              ("boost", Obs.Json.Num boost);
              ("store", Obs.Json.Num store);
              ("protocol", Obs.Json.Str label);
              ("completed", Obs.Json.Num (float_of_int completed));
              ("flows", Obs.Json.Num (float_of_int flows));
              ( "mean_fct",
                if Float.is_nan mean_fct || mean_fct <= 0. then Obs.Json.Null
                else Obs.Json.Num mean_fct );
              ("goodput", Obs.Json.Num goodput);
              ("jain", Obs.Json.Num jain);
              ( "shed",
                match ovstats with
                | Some (s, _, _, _) -> Obs.Json.Num (float_of_int s)
                | None -> Obs.Json.Null );
              ( "detours_refused",
                match ovstats with
                | Some (_, d, _, _) -> Obs.Json.Num (float_of_int d)
                | None -> Obs.Json.Null );
              ( "collapse_episodes",
                match ovstats with
                | Some (_, _, e, _) -> Obs.Json.Num (float_of_int e)
                | None -> Obs.Json.Null );
              ( "recovery_time",
                match ovstats with
                | Some (_, _, _, Some t) -> Obs.Json.Num t
                | Some (_, _, _, None) | None -> Obs.Json.Null );
              ("drops", Obs.Json.Num (float_of_int drops));
            ];
          rows :=
            [
              Printf.sprintf "%.0fx" boost;
              Printf.sprintf "%.0f" store;
              label;
              Printf.sprintf "%d/%d" completed flows;
              Printf.sprintf "%.2f Mbps" (goodput /. 1e6);
              (match ovstats with
              | Some (s, _, _, _) -> string_of_int s
              | None -> "-");
              (match ovstats with
              | Some (_, _, e, _) -> string_of_int e
              | None -> "-");
              recovery;
              string_of_int drops;
            ]
            :: !rows)
        cells)
    grid;
  Metrics.Report.table
    ~header:
      [ "crowd"; "store"; "protocol"; "done"; "goodput"; "shed"; "collapses";
        "recovery"; "drops" ]
    (List.rev !rows) Format.std_formatter ();
  (* the acceptance claim, stated by the artefact itself: at the
     highest flash-crowd intensity, control-on goodput (object-runs
     admission + shedding) retains at least the control-off goodput *)
  let top = List.fold_left Float.max neg_infinity boosts in
  Format.printf "@.";
  List.iter
    (fun store ->
      match
        ( Hashtbl.find_opt on_goodput (top, store),
          Hashtbl.find_opt off_goodput (top, store) )
      with
      | Some on, Some off when off > 0. ->
        Format.printf
          "goodput retention at %.0fx crowd, store %.0f: %.2f (control on / \
           off)@."
          top store (on /. off)
      | _ -> ())
    stores;
  (* Watchdog demonstration: a bottleneck outage during the crowd is a
     total stall — zero deliveries, nowhere to detour on a dumbbell —
     so the collapse edge and the time-to-recovery after the link
     returns are deterministic and measurable. *)
  Format.printf
    "@.--- collapse watchdog: bottleneck outage (t=6s..12s) during the \
     %.0fx crowd, store 40 ---@.@."
    top;
  let outage_faults =
    let lid a z =
      (Option.get (Topology.Graph.find_link g a z)).Topology.Link.id
    in
    Fault.Schedule.of_list
      [
        {
          Fault.Schedule.at = 6.;
          event = Fault.Schedule.Link_down { link = lid 0 1;
                                            policy = `Hold_queued };
        };
        {
          Fault.Schedule.at = 6.;
          event = Fault.Schedule.Link_down { link = lid 1 0;
                                            policy = `Hold_queued };
        };
        { Fault.Schedule.at = 12.;
          event = Fault.Schedule.Link_up { link = lid 0 1 } };
        { Fault.Schedule.at = 12.;
          event = Fault.Schedule.Link_up { link = lid 1 0 } };
      ]
  in
  let outage_variants =
    [
      ("INRPP off", None);
      control "INRPP drop-tail" Overload.Config.Drop_tail;
      control "INRPP object-runs" Overload.Config.Object_runs;
    ]
  in
  let outage_results =
    Parallel.Pool.run_jobs ~domains:(domains ())
      (Array.of_list
         (List.map
            (fun (_, ov) () ->
              let cfg =
                {
                  Inrpp.Config.default with
                  Inrpp.Config.cache_bits = 40. *. chunk_bits;
                }
              in
              let wl = overload_workload top in
              Inrpp.Protocol.run ~cfg ~horizon ~workload:wl
                ~faults:outage_faults ?overload:ov g [])
            outage_variants))
  in
  let outage_rows =
    List.mapi
      (fun i (label, ov) ->
        let r = outage_results.(i) in
        let open Inrpp.Protocol in
        let recovery =
          match r.collapse_recovery_time with
          | Some t -> Printf.sprintf "%.2fs" t
          | None -> "-"
        in
        let mean_fct = inrpp_mean_fct r in
        sidecar_emit ~experiment:"overload"
          [
            ("scenario", Obs.Json.Str "bottleneck-outage");
            ("boost", Obs.Json.Num top);
            ("store", Obs.Json.Num 40.);
            ("protocol", Obs.Json.Str label);
            ("completed", Obs.Json.Num (float_of_int r.completed));
            ("flows", Obs.Json.Num (float_of_int (Array.length r.flows)));
            ( "mean_fct",
              if Float.is_nan mean_fct || mean_fct <= 0. then Obs.Json.Null
              else Obs.Json.Num mean_fct );
            ("jain", Obs.Json.Num (inrpp_jain ~chunk_bits r));
            ("goodput", Obs.Json.Num r.goodput);
            ( "collapse_episodes",
              if Option.is_some ov then
                Obs.Json.Num (float_of_int r.collapse_episodes)
              else Obs.Json.Null );
            ( "recovery_time",
              match (ov, r.collapse_recovery_time) with
              | Some _, Some t -> Obs.Json.Num t
              | _ -> Obs.Json.Null );
          ];
        [
          label;
          Printf.sprintf "%d/%d" r.completed (Array.length r.flows);
          Printf.sprintf "%.2f Mbps" (r.goodput /. 1e6);
          (if Option.is_some ov then string_of_int r.collapse_episodes
           else "-");
          recovery;
          string_of_int r.total_drops;
        ])
      outage_variants
  in
  Metrics.Report.table
    ~header:[ "protocol"; "done"; "goodput"; "collapses"; "recovery"; "drops" ]
    outage_rows Format.std_formatter ();
  Format.printf
    "@.(graceful degradation: shedding new admissions and engaging \
     back-pressure early keeps in-custody chunks moving instead of \
     overflowing the store; the circuit breaker stops receivers from \
     retransmitting into the storm, and the watchdog timestamps each \
     collapse edge and measures the time until goodput climbs back \
     past the recovery threshold)@."

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks *)

let micro () =
  section "Micro-benchmarks (Bechamel, OLS ns/op)";
  let open Bechamel in
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let table = Topology.Detour.Table.create g in
  let router = Flowsim.Routing.create g Flowsim.Routing.sp in
  let demands =
    let paths =
      List.filter_map
        (fun i ->
          Flowsim.Routing.route router ~flow_id:i (i mod 20) (20 + (i mod 30)))
        (List.init 40 Fun.id)
    in
    Array.of_list (List.map (fun p -> (p, infinity)) paths)
  in
  let rng = Sim.Rng.create 7L in
  let tests =
    Test.make_grouped ~name:"inrpp" ~fmt:"%s %s"
      [
        Test.make ~name:"dijkstra (ebone)"
          (Staged.stage (fun () ->
               ignore (Topology.Dijkstra.run g 0)));
        Test.make ~name:"detour classify one link"
          (Staged.stage (fun () ->
               ignore (Topology.Detour.classify_link g (Topology.Graph.link g 0))));
        Test.make ~name:"max-min 40 flows"
          (Staged.stage (fun () -> ignore (Flowsim.Allocation.max_min g demands)));
        Test.make ~name:"inrp alloc 40 flows"
          (Staged.stage (fun () ->
               ignore
                 (Flowsim.Allocation.inrp
                    ~detours:(Topology.Detour.Table.find table)
                    g demands)));
        Test.make ~name:"event queue push+pop"
          (Staged.stage (fun () ->
               let q = Sim.Event_queue.create ~vacant:() in
               for i = 0 to 63 do
                 ignore (Sim.Event_queue.push q ~time:(float_of_int (i * 7 mod 64)) ())
               done;
               while Sim.Event_queue.pop q <> None do () done));
        Test.make ~name:"rng exponential"
          (Staged.stage (fun () -> ignore (Sim.Rng.exponential rng ~mean:1.)));
        Test.make ~name:"cache custody put+commit"
          (Staged.stage (fun () ->
               let c = Chunksim.Cache.create ~capacity:1e6 () in
               for i = 0 to 15 do
                 ignore (Chunksim.Cache.put_custody c ~flow:0 ~idx:i ~bits:100.)
               done;
               for _ = 0 to 15 do
                 Chunksim.Cache.commit_custody c ~flow:0
               done));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Printf.sprintf "%.0f ns" e
        | _ -> "?"
      in
      rows := [ name; est ] :: !rows)
    results;
  Metrics.Report.table ~header:[ "operation"; "time/op" ]
    (List.sort compare !rows)
    Format.std_formatter ()

(* ------------------------------------------------------------------ *)

let all =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("fig4-all", fig4_all);
    ("custody", custody);
    ("phases", phases);
    ("backpressure", backpressure);
    ("protocols", protocols);
    ("icn-cache", icn_cache);
    ("fct", fct);
    ("loss", loss);
    ("resilience", resilience);
    ("popularity", popularity);
    ("overload", overload);
    ("ablation-detour", ablation_detour);
    ("ablation-sched", ablation_sched);
    ("ablation-ac", ablation_ac);
    ("ablation-pitless", ablation_pitless);
    ("micro", micro);
  ]

let find name = List.assoc_opt name all

(* Run [f] with stdout redirected into a temp file and return what it
   wrote.  Used to read artefact output in-process: the bytes are
   exactly what `bench/main.exe <id>` prints, as both go through the
   same fd after the same [Format] flush discipline. *)
let capture f =
  let tmp = Filename.temp_file "inrpp_artefact" ".txt" in
  Format.pp_print_flush Format.std_formatter ();
  flush stdout;
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    Format.pp_print_flush Format.std_formatter ();
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (try f ()
   with e ->
     restore ();
     Sys.remove tmp;
     raise e);
  restore ();
  let ic = open_in_bin tmp in
  let n = in_channel_length ic in
  let out = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  out
