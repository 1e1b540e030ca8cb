(* RUN_SOAK=1 large-topology soak: hundreds of INRPP flows across the
   EBONE ISP-zoo graph with every runtime invariant checker attached,
   plus a cross-scale assertion that Obs.Sampler overhead stays
   sub-linear in engine event count.

     RUN_SOAK=1 dune runtest test/soak
     RUN_SOAK=1 SOAK_NDJSON=/tmp/soak.ndjson dune runtest test/soak
     RUN_SOAK=1 SOAK_DOMAINS=4 dune runtest test/soak

   With SOAK_NDJSON set, the large run's sampled series, metric
   snapshot and per-scale measurement outcomes are written there as
   NDJSON (the nightly CI job uploads it as an artifact).
   SOAK_DOMAINS=D (D >= 2) additionally runs one independent
   distinct-seed EBONE soak per domain — all checkers on, one
   Obs.Observer per run with its snapshot taken inside the owning
   domain — and prints each run's instrument and series counts at the
   join.  Without RUN_SOAK=1 the test prints a skip notice and
   exits 0. *)

let chunks_per_flow = 120

let cfg =
  {
    Inrpp.Config.default with
    Inrpp.Config.anticipation = 512;
    (* small stores: hotspot custody fills them and forces the
       backpressure phase, so the soak covers all three phases *)
    cache_bits = 40. *. Inrpp.Config.default.Inrpp.Config.chunk_bits;
  }

let make_specs g ~nflows ~seed =
  let n = Topology.Graph.node_count g in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  (* half the flows converge on a handful of hotspot destinations so
     the soak actually drives stores into custody and back pressure;
     the rest spread uniformly *)
  let hotspots = Array.init 4 (fun _ -> Sim.Rng.int rng n) in
  let specs = ref [] and made = ref 0 and attempts = ref 0 in
  while !made < nflows && !attempts < nflows * 100 do
    incr attempts;
    let s = Sim.Rng.int rng n in
    let d =
      if !made mod 2 = 0 then hotspots.(!made mod Array.length hotspots)
      else Sim.Rng.int rng n
    in
    if s <> d && Option.is_some (Topology.Dijkstra.shortest_path g s d)
    then begin
      let start = Sim.Rng.float rng 2. in
      specs :=
        Inrpp.Protocol.flow_spec ~start ~src:s ~dst:d chunks_per_flow
        :: !specs;
      incr made
    end
  done;
  if !made < nflows then
    failwith
      (Printf.sprintf "only %d of %d flows routable on the soak graph" !made
         nflows);
  List.rev !specs

type scale_result = {
  events : int;
  summary : Obs.Json.t; (* NDJSON line: events, wall, chunks, minor words *)
  sampler_ticks : int;
  result : Inrpp.Protocol.result;
  check : Check.Invariant.t;
  obs : Obs.Observer.t;
}

let run_scale ~label ~nflows ~sinks =
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let specs = make_specs g ~nflows ~seed:97 in
  let chk = Check.Invariant.create () in
  let obs = Obs.Observer.create ~sinks () in
  Gc.compact ();
  let minor0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let r = Inrpp.Protocol.run ~cfg ~horizon:600. ~obs ~check:chk g specs in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  let events = r.Inrpp.Protocol.engine_events in
  let chunks =
    Array.fold_left
      (fun acc (f : Inrpp.Protocol.flow_result) ->
        acc + f.Inrpp.Protocol.chunks_received)
      0 r.Inrpp.Protocol.flows
  in
  (* one sampler tick appends one point to every tracked series *)
  let sampler_ticks =
    List.fold_left
      (fun acc s ->
        let n = ref 0 in
        Obs.Series.iter (fun ~time:_ _ -> incr n) s;
        max acc !n)
      0 (Obs.Observer.series obs)
  in
  if r.Inrpp.Protocol.completed <> nflows then
    failwith
      (Printf.sprintf "%s: %d of %d flows completed by the horizon" label
         r.Inrpp.Protocol.completed nflows);
  if not (Check.Invariant.ok chk) then
    failwith
      (Printf.sprintf "%s: invariant violations\n%s" label
         (Check.Invariant.report chk));
  Printf.printf
    "%-6s %4d flows  %9d events  %7.3fs wall  %6d ticks  sim %.2fs  \
     custody %d  bp %d/%d  drops %d\n%!"
    label nflows events wall_s sampler_ticks
    r.Inrpp.Protocol.sim_time r.Inrpp.Protocol.custody_stored
    r.Inrpp.Protocol.bp_engages r.Inrpp.Protocol.bp_releases
    r.Inrpp.Protocol.total_drops;
  let num x = Obs.Json.Num x in
  let summary =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str label);
        ("events", num (float_of_int events));
        ("wall_s", num wall_s);
        ("chunks_delivered", num (float_of_int chunks));
        ("minor_words_per_event", num (minor_words /. float_of_int events));
      ]
  in
  { events; summary; sampler_ticks; result = r; check = chk; obs }

(* the full sampled series set for an ISP-zoo soak runs to gigabytes
   of NDJSON (every interface times every phase times ~7k ticks), so
   the artifact keeps the per-node aggregates, each thinned to at most
   [max_points] points *)
let artifact_series = [ "custody_bits"; "bp_active_flows"; "detoured_total" ]
let max_points = 200

let write_ndjson path small large =
  let oc = open_out path in
  let buf = Buffer.create 65536 in
  let line j =
    Obs.Json.to_buffer buf j;
    Buffer.add_char buf '\n'
  in
  line small.summary;
  line large.summary;
  Obs.Export.snapshot_to_ndjson buf (Obs.Observer.snapshot large.obs);
  List.iter
    (fun s ->
      if List.mem (Obs.Series.name s) artifact_series then begin
        let len = ref 0 in
        Obs.Series.iter (fun ~time:_ _ -> incr len) s;
        let stride = max 1 (!len / max_points) in
        let i = ref 0 in
        Obs.Series.iter
          (fun ~time v ->
            if !i mod stride = 0 then line (Obs.Export.point_to_json s ~time v);
            incr i)
          s
      end)
    (Obs.Observer.series large.obs);
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "soak NDJSON written to %s\n%!" path

(* one seeded fault schedule under every checker: link outages, a
   custody-wiping crash and a control burst against the same EBONE
   graph, all inside the ~6 s of simulated time the flows take.  Fault
   attribution must keep conservation green, and every flow must still
   complete once the faults resolve. *)
let run_fault_soak () =
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let nflows = 120 in
  let specs = make_specs g ~nflows ~seed:97 in
  let faults =
    Fault.Schedule.random ~seed:2026L ~link_outages:3 ~crashes:1 ~bursts:1
      ~horizon:6. g
  in
  let chk = Check.Invariant.create () in
  let r = Inrpp.Protocol.run ~cfg ~horizon:600. ~check:chk ~faults g specs in
  if not (Check.Invariant.ok chk) then
    failwith
      (Printf.sprintf "fault soak: invariant violations\n%s"
         (Check.Invariant.report chk));
  if r.Inrpp.Protocol.completed <> nflows then
    failwith
      (Printf.sprintf "fault soak: %d of %d flows completed by the horizon"
         r.Inrpp.Protocol.completed nflows);
  Printf.printf
    "fault  %4d flows  %d failovers  %d custody chunks lost  recovery %s\n%!"
    nflows r.Inrpp.Protocol.failovers r.Inrpp.Protocol.chunks_lost_in_custody
    (match r.Inrpp.Protocol.recovery_time with
    | Some t -> Printf.sprintf "%.3fs" t
    | None -> "-")

(* workload-driven soak: an open-loop generated schedule (hot Zipf
   catalogue, Poisson sessions, one flash crowd) against EBONE with
   ICN caching on and every checker attached — the request mix the
   workload engine produces, not the hand-built hotspot pattern of
   [make_specs].  A hot catalogue over a modest object set guarantees
   repeat fetches, so the popularity region must actually serve
   hits. *)
let run_workload_soak () =
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let workload =
    {
      Workload.Gen.default with
      Workload.Gen.seed = 443L;
      horizon = 6.;
      max_requests = 150;
      objects = 32;
      alpha = 1.0;
      chunk_min = 4;
      chunk_max = 64;
      rate = 12.;
      bursts = [ Workload.Arrivals.burst ~at:2. ~duration:2. ~boost:3. ];
    }
  in
  let cfg = { cfg with Inrpp.Config.icn_caching = true } in
  let chk = Check.Invariant.create () in
  let r = Inrpp.Protocol.run ~cfg ~horizon:600. ~check:chk ~workload g [] in
  if not (Check.Invariant.ok chk) then
    failwith
      (Printf.sprintf "workload soak: invariant violations\n%s"
         (Check.Invariant.report chk));
  let nflows = Array.length r.Inrpp.Protocol.flows in
  if r.Inrpp.Protocol.completed <> nflows then
    failwith
      (Printf.sprintf "workload soak: %d of %d flows completed by the horizon"
         r.Inrpp.Protocol.completed nflows);
  if r.Inrpp.Protocol.cache_hits = 0 then
    failwith
      "workload soak: a hot catalogue produced no on-path cache hits";
  Printf.printf
    "wload  %4d flows  %d cache hits  custody %d  bp %d/%d  drops %d\n%!"
    nflows r.Inrpp.Protocol.cache_hits r.Inrpp.Protocol.custody_stored
    r.Inrpp.Protocol.bp_engages r.Inrpp.Protocol.bp_releases
    r.Inrpp.Protocol.total_drops

(* chaos soak: a flash-crowd workload composed with deterministic
   bottleneck-ish outages AND random background faults, run with the
   full overload-control layer on and every checker attached.  The
   point is the composition: admission shedding, the circuit breaker
   and the collapse watchdog must not break conservation or custody
   accounting while faults fire mid crowd, and the run must still
   drain to completion. *)
let run_chaos_soak () =
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let workload =
    {
      Workload.Gen.default with
      Workload.Gen.seed = 577L;
      horizon = 6.;
      max_requests = 150;
      objects = 32;
      alpha = 1.0;
      chunk_min = 4;
      chunk_max = 64;
      rate = 12.;
      bursts = [ Workload.Arrivals.burst ~at:2. ~duration:2. ~boost:6. ];
    }
  in
  let faults =
    let module S = Fault.Schedule in
    let a = S.random ~seed:31L ~link_outages:2 ~bursts:1 ~horizon:20. g in
    let b = S.random ~seed:32L ~link_outages:1 ~crashes:1 ~horizon:25. g in
    (* of_list's stable sort puts a's events first at equal times *)
    S.of_list ~seed:(S.seed a) (S.events a @ S.events b)
  in
  let overload = Overload.Config.default in
  let chk = Check.Invariant.create () in
  let r =
    Inrpp.Protocol.run ~cfg ~horizon:600. ~check:chk ~workload ~faults
      ~overload g []
  in
  if not (Check.Invariant.ok chk) then
    failwith
      (Printf.sprintf "chaos soak: invariant violations\n%s"
         (Check.Invariant.report chk));
  let nflows = Array.length r.Inrpp.Protocol.flows in
  if r.Inrpp.Protocol.completed <> nflows then
    failwith
      (Printf.sprintf "chaos soak: %d of %d flows completed by the horizon"
         r.Inrpp.Protocol.completed nflows);
  Printf.printf
    "chaos  %4d flows  %d shed  %d failovers  %d collapse(s)  recovery %s  \
     drops %d\n%!"
    nflows r.Inrpp.Protocol.shed r.Inrpp.Protocol.failovers
    r.Inrpp.Protocol.collapse_episodes
    (match r.Inrpp.Protocol.collapse_recovery_time with
    | Some t -> Printf.sprintf "%.3fs" t
    | None -> "-")
    r.Inrpp.Protocol.total_drops

(* SOAK_DOMAINS multi-seed mode: one full-checker EBONE soak per
   domain, each on its own seed (disjoint from the scale runs' 97).
   Every job owns its engine, RNG, checkers and Observer; the snapshot
   is taken inside the owning domain (the Metric registry is per-run
   state) and only the immutable results cross back to the join, which
   checks and reports them in job-index order. *)
let run_parallel_soak ~domains =
  let nflows = 120 in
  let jobs =
    Array.init domains (fun i () ->
        let seed = 211 + i in
        let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
        let specs = make_specs g ~nflows ~seed in
        let chk = Check.Invariant.create () in
        let obs = Obs.Observer.create ~sinks:[] () in
        let r =
          Inrpp.Protocol.run ~cfg ~horizon:600. ~obs ~check:chk g specs
        in
        let snap = Obs.Observer.snapshot obs in
        let series = Obs.Observer.series obs in
        Obs.Observer.close obs;
        (seed, r, chk, snap, series))
  in
  let runs = Parallel.Pool.run_jobs ~domains jobs in
  Array.iter
    (fun (seed, (r : Inrpp.Protocol.result), chk, snap, series) ->
      if not (Check.Invariant.ok chk) then
        failwith
          (Printf.sprintf "parallel soak seed %d: invariant violations\n%s"
             seed (Check.Invariant.report chk));
      if r.Inrpp.Protocol.completed <> nflows then
        failwith
          (Printf.sprintf
             "parallel soak seed %d: %d of %d flows completed by the horizon"
             seed r.Inrpp.Protocol.completed nflows);
      Printf.printf "par    seed %d  %d instruments  %d series\n%!" seed
        (List.length snap) (List.length series))
    runs

let soak () =
  let small = run_scale ~label:"small" ~nflows:120 ~sinks:[] in
  let large = run_scale ~label:"large" ~nflows:360 ~sinks:[] in
  run_fault_soak ();
  run_workload_soak ();
  run_chaos_soak ();
  (* a soak that never leaves push-data is not soaking anything *)
  if
    large.result.Inrpp.Protocol.custody_stored = 0
    || large.result.Inrpp.Protocol.bp_engages = 0
  then failwith "large run exercised neither custody nor back pressure";
  (* Sampler work is periodic — proportional to simulated time over
     the sampling interval, not to traffic.  Tripling the flow count
     multiplies the event count far faster than the run lengthens, so
     the tick growth must stay well under the event growth. *)
  let ratio a b = float_of_int a /. float_of_int b in
  let event_ratio = ratio large.events small.events in
  let tick_ratio = ratio large.sampler_ticks small.sampler_ticks in
  Printf.printf "event ratio %.2f, sampler tick ratio %.2f\n%!" event_ratio
    tick_ratio;
  if tick_ratio > 0.5 *. event_ratio then
    failwith
      (Printf.sprintf
         "sampler overhead not sub-linear: ticks grew %.2fx vs events %.2fx"
         tick_ratio event_ratio);
  (match Sys.getenv_opt "SOAK_DOMAINS" with
  | Some d ->
    (match int_of_string_opt d with
    | Some n when n >= 2 -> run_parallel_soak ~domains:n
    | Some _ -> ()
    | None ->
      failwith (Printf.sprintf "SOAK_DOMAINS wants an integer, got %s" d))
  | None -> ());
  (match Sys.getenv_opt "SOAK_NDJSON" with
  | Some path when path <> "" -> write_ndjson path small large
  | _ -> ());
  Obs.Observer.close small.obs;
  Obs.Observer.close large.obs;
  print_endline "soak passed"

let () =
  match Sys.getenv_opt "RUN_SOAK" with
  | Some "1" -> soak ()
  | _ -> print_endline "soak skipped (set RUN_SOAK=1 to run)"
