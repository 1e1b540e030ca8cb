(* CLI: chunk-level protocol runs.

     dune exec bin/chunk_run.exe -- --topology fig3 --chunks 300
     dune exec bin/chunk_run.exe -- --topology fig3 --protocol all
     dune exec bin/chunk_run.exe -- --topology dumbbell --flows 4 --protocol all
*)

open Cmdliner

let topo_of = function
  | "fig3" -> Topology.Builders.fig3 ()
  | "line" -> Topology.Builders.line ~capacity:10e6 ~delay:2e-3 4
  | "dumbbell" ->
    Topology.Builders.dumbbell ~access_capacity:10e6 ~bottleneck_capacity:5e6 4
  | "vsnl" -> Topology.Isp_zoo.graph Topology.Isp_zoo.Vsnl
  | s -> prerr_endline ("unknown topology: " ^ s); exit 1

let specs_for topo_name g nflows chunks =
  match topo_name with
  | "dumbbell" ->
    List.init (min nflows 4) (fun i ->
        Inrpp.Protocol.flow_spec ~src:(2 + i) ~dst:(6 + i) chunks)
  | _ ->
    let n = Topology.Graph.node_count g in
    List.init nflows (fun i ->
        Inrpp.Protocol.flow_spec ~src:(i mod (n - 1)) ~dst:(n - 1) chunks)

let flag_name proto =
  String.lowercase_ascii (Baselines.Comparison.name proto)

let run topo_name protocol nflows chunks anticipation =
  let g = topo_of topo_name in
  let specs = specs_for topo_name g nflows chunks in
  let cfg = { Inrpp.Config.default with Inrpp.Config.anticipation } in
  match protocol with
  | "inrpp" ->
    let r = Inrpp.Protocol.run ~cfg g specs in
    Format.printf "%a@." Inrpp.Protocol.pp_result r;
    Array.iteri
      (fun i fr ->
        match fr.Inrpp.Protocol.fct with
        | Some fct -> Format.printf "  flow %d: fct %.3fs@." i fct
        | None ->
          Format.printf "  flow %d: incomplete (%d/%d chunks)@." i
            fr.Inrpp.Protocol.chunks_received fr.Inrpp.Protocol.spec.Inrpp.Protocol.chunks)
      r.Inrpp.Protocol.flows
  | "all" ->
    let rows = Baselines.Comparison.run_all ~cfg g specs in
    Baselines.Run_result.pp_table Format.std_formatter rows
  | p -> begin
    match
      List.find_opt (fun proto -> flag_name proto = p) Baselines.Comparison.all
    with
    | Some proto ->
      let r = Baselines.Comparison.run_one ~cfg proto g specs in
      Format.printf "%a@." Baselines.Run_result.pp r
    | None -> prerr_endline ("unknown protocol: " ^ p); exit 1
  end

let topo =
  Arg.(value & opt string "fig3"
       & info [ "topology" ] ~docv:"T" ~doc:"fig3 | line | dumbbell | vsnl.")

let protocol =
  Arg.(value & opt string "inrpp"
       & info [ "protocol" ] ~docv:"P"
           ~doc:
             (String.concat " | "
                (List.map flag_name Baselines.Comparison.all @ [ "all." ])))

let flows =
  Arg.(value & opt int 1 & info [ "flows" ] ~docv:"N" ~doc:"Number of flows.")

let chunks =
  Arg.(value & opt int 300 & info [ "chunks" ] ~docv:"C" ~doc:"Chunks per flow.")

let anticipation =
  Arg.(value & opt int 512
       & info [ "anticipation" ] ~docv:"AC" ~doc:"Anticipated-data window.")

let cmd =
  Cmd.v
    (Cmd.info "chunk_run" ~doc:"Chunk-level INRPP protocol runs and comparisons")
    Term.(const run $ topo $ protocol $ flows $ chunks $ anticipation)

let () = exit (Cmd.eval cmd)
