(* Custody caching and the back-pressure wave, step by step.

   A sender pushes open-loop into a 5x bandwidth drop with a
   deliberately small content store.  Watch the router behind the
   bottleneck take chunks into custody, cross its high watermark,
   signal the sender into the closed loop, drain, and release.

     dune exec examples/backpressure_demo.exe
*)

let () =
  (* 0 --10 Mbps--> 1 --2 Mbps--> 2, no alternative path *)
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "sender" in
  let n1 = Topology.Graph.Builder.add_node b "bottleneck-router" in
  let n2 = Topology.Graph.Builder.add_node b "receiver" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  let g = Topology.Graph.Builder.build b in

  let cfg =
    {
      Inrpp.Config.default with
      Inrpp.Config.anticipation = 512;     (* bulk transfer: push everything *)
      cache_bits = 30. *. 80e3;            (* tiny store: 30 chunks *)
    }
  in
  Format.printf
    "store: %g chunks, watermarks engage at %.0f%% / release at %.0f%%@.@."
    (cfg.Inrpp.Config.cache_bits /. cfg.Inrpp.Config.chunk_bits)
    (100. *. Chunksim.Cache.high_water)
    (100. *. Chunksim.Cache.low_water);

  (* narrate the interesting part of the trace as the run records it,
     and count custody in and out *)
  let trace = Chunksim.Trace.create () in
  let cached = ref 0 and released = ref 0 in
  Chunksim.Trace.on_record trace (fun time e ->
      match e with
      | Chunksim.Trace.Bp_signal _ | Chunksim.Trace.Phase_change _
      | Chunksim.Trace.Flow_complete _ | Chunksim.Trace.Link_fault _
      | Chunksim.Trace.Node_fault _ ->
        Format.printf "  %7.3fs  %a@." time Chunksim.Trace.pp_event e
      | Chunksim.Trace.Cached _ -> incr cached
      | Chunksim.Trace.Custody_released _ -> incr released
      | _ -> ());
  Format.printf "control-plane timeline:@.";
  let r =
    Inrpp.Protocol.run ~cfg ~trace g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 150 ]
  in
  Format.printf "@.custody: %d chunks stored, %d handed on downstream@."
    !cached !released;
  Format.printf "peak custody occupancy: %a (store %a)@." Sim.Units.pp_size
    r.Inrpp.Protocol.peak_custody_bits Sim.Units.pp_size
    cfg.Inrpp.Config.cache_bits;
  Format.printf "drops: %d — back-pressure kept the 5x overload lossless@."
    r.Inrpp.Protocol.total_drops;
  Format.printf "%a@." Inrpp.Protocol.pp_result r
