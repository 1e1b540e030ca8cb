(* Simulation-core hot-path benchmark runner.

   Measures raw engine throughput (events/sec), end-to-end chunk
   delivery rate (chunks/sec) and allocation pressure
   (minor-words/event) on three scenarios:

   - engine_churn : fixed count of self-rescheduling timers plus a
     cancel-heavy side channel; pure Event_queue/Engine cost, the
     event count is identical across core implementations.
   - dumbbell    : forwarding microbenchmark — pre-filled source
     queues drain through a 4-source dumbbell (src -> left -> right
     -> dst, 5 Mbps bottleneck) with static next-hop handlers and no
     protocol machinery; isolates the Engine + Iface hot path the
     overhaul targets.
   - isp_zoo     : 8 INRPP flows across the EBONE ISP-zoo graph
     (protocol macro-benchmark; tracks end-to-end chunk throughput).

   - flows_1m    : flow-state memory benchmark — ramps the EBONE graph
     to one million concurrent flows (20k under --smoke) drawn from
     Workload.Gen.requests_seq, measures the live-heap cost per
     flow-table entry (bytes_per_flow) and the process peak RSS, then
     releases every flow and fails hard if any table entry leaks.

   Writes BENCH_core.json (schema `inrpp-bench-core/v4`) so future PRs
   can compare against the recorded trajectory.  `--trials N` sets the best-of-N trial count,
   `--domains D` spreads the trials over D domains (per-trial
   allocation is read inside the owning domain, so the gate is sound
   at any D).  `--smoke` runs small iteration counts for CI; `--check`
   (after a run, as in `--smoke --check`) gates the fresh results
   against the frozen per-benchmark allocation baselines — a benchmark
   allocating more than 2x its baseline minor-words/event fails the
   run, wall-clock numbers are advisory only (CI machines are too
   noisy to gate on time).  `--check FILE` applies the same schema +
   allocation gate to an existing v4 JSON file. *)

let schema_version = "inrpp-bench-core/v4"

(* every run seeds the stdlib RNG explicitly (and reports the seed in
   the JSON) so any randomized consumer — now or added later — cannot
   silently self-init and make two bench runs incomparable *)
let rng_seed = 0x5EED1

(* Events/sec on the pre-overhaul core (two events per forwarded
   packet, cancelled timers left in the heap until expiry,
   closure-per-packet Iface), measured with this same runner at full
   iteration counts on the reference machine (a worktree of the
   pre-overhaul commit with bench/perf copied in).  Kept as the
   comparison floor for the overhaul's >= 1.5x dumbbell acceptance
   criterion.  isp_zoo is protocol-bound: the overhaul shrinks its
   event count ~35% at equal wall time, so chunks/sec — not
   events/sec — is the number to track there. *)
let baseline =
  [
    ("engine_churn_events_per_sec", 791_443.);
    ("dumbbell_events_per_sec", 1_172_531.);
    ("dumbbell_chunks_per_sec", 195_360.);
    ("isp_zoo_events_per_sec", 358_497.);
    ("isp_zoo_chunks_per_sec", 23_460.);
  ]

(* Per-benchmark allocation baselines (minor words per event), frozen
   after the protocol hot-path overhaul (packed custody keys, dense
   flow stores, cached detour candidates, allocation-free estimator).
   `--check` fails a run where any benchmark exceeds 2x its baseline:
   allocation per event is iteration-count- and machine-independent,
   so unlike wall time it can be gated in CI.  Re-freeze deliberately
   (and say why in the commit) if a feature legitimately adds
   allocation to the hot path. *)
let alloc_baseline =
  [
    ("engine_churn", 38.0);
    ("dumbbell", 58.3);
    (* isp_zoo/overload re-frozen (+0.1) with the struct-of-arrays flow
       table: the config record grew three fields, shifting one-off
       setup allocation; the per-packet path allocates the same *)
    ("isp_zoo", 150.7);
    (* isp_zoo with Overload.Config.default: admission checks build one
       pressure record per custody offer, but shedding also avoids
       work, so the net per-event figure sits near isp_zoo's *)
    ("overload", 147.7);
    (* flows_1m's events are the ramp batches, so this quotient is the
       allocation of installing ~1000 flows' state — dominated by the
       flow tables themselves, which is the point of the benchmark *)
    ("flows_1m", 163_202.6);
  ]

(* smoke iteration counts are tiny, so one-off setup allocation
   (graph build, config records, hashtable headers) dominates the
   per-event quotient and the numbers sit far above the full-run
   figures.  They are however bit-deterministic run to run — the
   simulator allocates identically on identical inputs — which makes
   them safe to gate tightly in CI. *)
let alloc_baseline_smoke =
  [
    ("engine_churn", 38.1);
    ("dumbbell", 58.9);
    ("isp_zoo", 683.1);
    ("overload", 691.7);
    ("flows_1m", 5_775.9);
  ]

let alloc_slack = 2.0

(* Frozen bytes-per-flow-table-entry figures from the flows_1m
   benchmark (live-words delta across the ramp / entries installed; an
   entry is one flow's state at one router, so a flow's network-wide
   cost is this times its path length).  Tighter slack than the
   allocation gate: the figure is a Gc.live_words delta between two
   compactions, so it is near-deterministic — a >1.25x excursion means
   the per-flow layout actually grew.  Re-freeze deliberately when a
   feature legitimately adds per-flow state. *)
let bytes_slack = 1.25

(* full run: 1,000,000 concurrent flows over EBONE, 128.2 B per entry
   (~6 entries per flow at EBONE path lengths), 771 MB peak RSS *)
let bytes_baseline = [ ("flows_1m", 128.2) ]
let bytes_baseline_smoke = [ ("flows_1m", 121.7) ]

open Harness

(* ------------------------------------------------------------------ *)
(* Scenarios *)

let engine_churn ~total () =
  let eng = Sim.Engine.create () in
  let remaining = ref total in
  let n_timers = 64 in
  let noop () = () in
  let doomed = Array.make n_timers None in
  let timers =
    Array.init n_timers (fun i ->
        let delay = 1e-3 +. (float_of_int i *. 1e-6) in
        let rec tick () =
          if !remaining > 0 then begin
            decr remaining;
            (* cancel-heavy side channel: replace a far-future event on
               every tick so the heap accumulates cancelled entries *)
            (match doomed.(i) with
            | Some h -> Sim.Engine.cancel h
            | None -> ());
            doomed.(i) <- Some (Sim.Engine.schedule eng ~delay:1e6 noop);
            ignore (Sim.Engine.schedule eng ~delay tick)
          end
        in
        tick)
  in
  Array.iteri
    (fun i tick ->
      ignore (Sim.Engine.schedule eng ~delay:(float_of_int (i + 1) *. 1e-5) tick))
    timers;
  Sim.Engine.run ~until:1e5 eng;
  (Sim.Engine.events_handled eng, 0)

let received (r : Inrpp.Protocol.result) =
  Array.fold_left
    (fun acc (f : Inrpp.Protocol.flow_result) -> acc + f.Inrpp.Protocol.chunks_received)
    0 r.Inrpp.Protocol.flows

let bulk = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 }

(* Forwarding microbenchmark: every packet is queued up front, then
   the engine drains the network to completion.  Each packet crosses
   three hops (src access link, bottleneck, dst access link), so the
   run is arrival events and interface pops — no protocol logic.
   Each router touch re-arms that flow's idle/custody timer, the way
   per-flow router state (and the paper's chunk-custody retention)
   behaves, so the heap carries a realistic cancelled-timer load
   alongside the forwarding events.  Queues are sized to hold the
   full load: the benchmark measures forwarding cost, not drop
   behaviour. *)
let chunk_bits = 80_000. (* 10 kB data chunk *)

let idle_timeout = 1e4 (* outlives the run: idle flows are never torn down *)

let dumbbell ~packets () =
  let g =
    Topology.Builders.dumbbell ~access_capacity:10e6 ~bottleneck_capacity:5e6 4
  in
  let eng = Sim.Engine.create () in
  let queue_bits = float_of_int packets *. chunk_bits *. 8. in
  let net = Chunksim.Net.create ~queue_bits eng g in
  let left = 0 and right = 1 in
  let bottleneck = Option.get (Topology.Graph.find_link g left right) in
  let dst_link =
    Array.init 4 (fun i -> Option.get (Topology.Graph.find_link g right (6 + i)))
  in
  let src_link =
    Array.init 4 (fun i -> Option.get (Topology.Graph.find_link g (2 + i) left))
  in
  let delivered = ref 0 in
  let idle = Array.make 4 None in
  let noop () = () in
  let touch f =
    (match idle.(f) with
    | Some h -> Sim.Engine.cancel h
    | None -> ());
    idle.(f) <- Some (Sim.Engine.schedule eng ~delay:idle_timeout noop)
  in
  Chunksim.Net.set_handler net left (fun ~from:_ p ->
      touch (Chunksim.Packet.flow p);
      ignore (Chunksim.Net.send net ~via:bottleneck p));
  Chunksim.Net.set_handler net right (fun ~from:_ p ->
      touch (Chunksim.Packet.flow p);
      ignore (Chunksim.Net.send net ~via:dst_link.(Chunksim.Packet.flow p) p));
  for i = 0 to 3 do
    Chunksim.Net.set_handler net (6 + i) (fun ~from:_ _ -> incr delivered)
  done;
  for i = 0 to 3 do
    let p = Chunksim.Packet.data ~flow:i ~idx:0 ~born:0. chunk_bits in
    for _ = 1 to packets do
      ignore (Chunksim.Net.send net ~via:src_link.(i) p)
    done
  done;
  Sim.Engine.run eng;
  (Sim.Engine.events_handled eng, !delivered)

let isp_zoo ?obs ?overload ~chunks () =
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let n = Topology.Graph.node_count g in
  let specs =
    List.filter_map
      (fun i ->
        let src = i * 3 mod n and dst = (i + (n / 2)) mod n in
        if src <> dst
           && Option.is_some (Topology.Dijkstra.shortest_path g src dst)
        then Some (Inrpp.Protocol.flow_spec ~src ~dst chunks)
        else None)
      (List.init 8 Fun.id)
  in
  let r = Inrpp.Protocol.run ~cfg:bulk ?obs ?overload ~horizon:600. g specs in
  (r.Inrpp.Protocol.engine_events, received r)

(* Flow-state memory benchmark.  Ramps the EBONE graph to [flows]
   concurrent flows — endpoints drawn from the deterministic workload
   stream, state installed along each flow's shortest path in batches
   driven by engine events — and measures what the flow tables
   actually cost:

   - bytes_per_flow: Gc live-words delta across the ramp (compaction
     on both sides, everything else preallocated outside the window:
     endpoint arrays, per-pair install plans, Dijkstra trees) divided
     by the flow-table entries installed.  One entry is one flow's
     state at one router; a flow's network-wide cost is this times its
     path length.
   - peak_rss_bytes: the process high-water mark (/proc VmHWM), the
     whole-process sanity bound on the same number.

   After the measurement every flow is released: the benchmark fails
   hard if the live-entry count does not return to 0 (free-list leak)
   or if the ramp did not reach the requested concurrency. *)

let vm_hwm_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        let acc =
          match Scanf.sscanf line "VmHWM: %f kB" Fun.id with
          | kb -> kb *. 1024.
          | exception Scanf.Scan_failure _ | exception End_of_file
          | exception Failure _ ->
            acc
        in
        go acc
    in
    let v = go 0. in
    close_in ic;
    v

let flows_1m ~flows ~stats () =
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let n = Topology.Graph.node_count g in
  let eng = Sim.Engine.create () in
  let net =
    Chunksim.Net.create ~queue_bits:bulk.Inrpp.Config.queue_bits eng g
  in
  let detours = Inrpp.Detour_table.create ~max_intermediate:2 g in
  let routers =
    Array.init n (fun node ->
        Inrpp.Router.create ~cfg:bulk ~net ~node ~detours ())
  in
  (* endpoint stream: the same generator the overload experiments use,
     capped at [flows]; drawn into arrays before the measured window *)
  let w =
    {
      Workload.Gen.default with
      Workload.Gen.seed = 42L;
      horizon = 3600.;
      max_requests = flows;
      rate = float_of_int flows;
    }
  in
  let srcs = Array.make flows 0 and dsts = Array.make flows 0 in
  let drawn = ref 0 in
  Seq.iter
    (fun (r : Workload.Request.t) ->
      srcs.(!drawn) <- r.Workload.Request.src;
      dsts.(!drawn) <- r.Workload.Request.dst;
      incr drawn)
    (Workload.Gen.requests_seq w g);
  let drawn = !drawn in
  if drawn < flows then
    failwith
      (Printf.sprintf "flows_1m: workload drew %d of %d flows" drawn flows);
  (* per-(src, dst) install plan — path nodes with their data/request
     next hops — memoized over the O(n^2) distinct pairs so no Dijkstra
     or option allocation lands inside the measured window *)
  let trees = Hashtbl.create 64 in
  let tree src =
    match Hashtbl.find_opt trees src with
    | Some t -> t
    | None ->
      let t = Topology.Dijkstra.run g src in
      Hashtbl.add trees src t;
      t
  in
  let plans = Hashtbl.create 4096 in
  let plan src dst =
    let key = (src * n) + dst in
    match Hashtbl.find_opt plans key with
    | Some p -> p
    | None ->
      let path =
        match Topology.Dijkstra.path_to (tree src) dst with
        | Some p -> p
        | None -> failwith "flows_1m: unroutable workload pair"
      in
      let nodes = Array.of_list path.Topology.Path.nodes in
      let links = Array.of_list path.Topology.Path.links in
      let hops = Array.length nodes in
      let dls =
        Array.init hops (fun k -> if k < hops - 1 then Some links.(k) else None)
      in
      let rls =
        Array.init hops (fun k ->
            if k > 0 then Topology.Graph.find_link g nodes.(k) nodes.(k - 1)
            else None)
      in
      let p = (nodes, dls, rls) in
      Hashtbl.add plans key p;
      p
  in
  for k = 0 to drawn - 1 do
    ignore (plan srcs.(k) dsts.(k))
  done;
  let live_entries () =
    Array.fold_left
      (fun acc r -> acc + Inrpp.Router.flow_entries_live r)
      0 routers
  in
  (* measured ramp: install in ~1000 engine-event batches *)
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let entries = ref 0 in
  let batch = max 1 (drawn / 1000) in
  let rec ramp k () =
    let stop = min drawn (k + batch) in
    for f = k to stop - 1 do
      let nodes, dls, rls = plan srcs.(f) dsts.(f) in
      for j = 0 to Array.length nodes - 1 do
        Inrpp.Router.install_flow routers.(nodes.(j)) ~flow:f
          ~data_link:dls.(j) ~req_link:rls.(j) ();
        incr entries
      done
    done;
    if stop < drawn then ignore (Sim.Engine.schedule eng ~delay:1e-3 (ramp stop))
  in
  ignore (Sim.Engine.schedule eng ~delay:1e-3 (ramp 0));
  Sim.Engine.run eng;
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  if live_entries () <> !entries then
    failwith
      (Printf.sprintf "flows_1m: %d entries live after ramp, expected %d"
         (live_entries ()) !entries);
  let bytes_per_flow =
    float_of_int (live1 - live0) *. 8. /. float_of_int (max 1 !entries)
  in
  stats := Some (bytes_per_flow, vm_hwm_bytes ());
  (* release everything and prove the free list recycles it all *)
  for f = 0 to drawn - 1 do
    let nodes, _, _ = plan srcs.(f) dsts.(f) in
    Array.iter
      (fun node -> Inrpp.Router.release_flow routers.(node) ~flow:f)
      nodes
  done;
  (if live_entries () <> 0 then
     failwith
       (Printf.sprintf "flows_1m: %d flow-table entries leaked"
          (live_entries ())));
  let recycled =
    Array.fold_left
      (fun acc r -> acc + Inrpp.Router.flow_entries_recycled r)
      0 routers
  in
  if recycled <> !entries then
    failwith
      (Printf.sprintf "flows_1m: recycled %d of %d entries" recycled !entries);
  (Sim.Engine.events_handled eng, drawn)

(* --profile: one extra isp_zoo run with the engine self-profiler on,
   exported next to BENCH_core.json.  Deliberately outside the
   measured outcomes — the profiler reads the wall clock around every
   handler, which would skew both the timing numbers and (slightly)
   the allocation gate. *)
let profile_run ~chunks path =
  let obs = Obs.Observer.create ~profile:true ~clock:Unix.gettimeofday () in
  let events, chunks_done = isp_zoo ~obs ~chunks () in
  let rows = Obs.Observer.profile_rows obs in
  Obs.Observer.close obs;
  let j =
    Obs.Profile.to_json
      ~extra:
        [
          ("scenario", Obs.Json.Str "isp_zoo");
          ("engine_events", Obs.Json.Num (float_of_int events));
          ("chunks_delivered", Obs.Json.Num (float_of_int chunks_done));
        ]
      rows
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Obs.Profile.report Format.std_formatter rows;
  Format.pp_print_flush Format.std_formatter ();
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* JSON output *)

let report ~smoke ~trials ~domains outcomes =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema_version);
      ("smoke", Obs.Json.Bool smoke);
      ("rng_seed", Obs.Json.Num (float_of_int rng_seed));
      ("trials", Obs.Json.Num (float_of_int trials));
      ("domains", Obs.Json.Num (float_of_int domains));
      ( "host_cores",
        Obs.Json.Num (float_of_int (Domain.recommended_domain_count ())) );
      ("benchmarks", Obs.Json.List (List.map outcome_json outcomes));
      ( "baseline",
        Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Num v)) baseline) );
      ( "alloc_baseline",
        Obs.Json.Obj
          (List.map (fun (k, v) -> (k, Obs.Json.Num v)) alloc_baseline) );
      ( "bytes_baseline",
        Obs.Json.Obj
          (List.map (fun (k, v) -> (k, Obs.Json.Num v)) bytes_baseline) );
    ]

(* ------------------------------------------------------------------ *)
(* Regression gate.  Schema: shape must match exactly.  Allocation:
   minor-words/event above [alloc_slack] x the frozen baseline fails.
   Wall clock: advisory only — events/sec below the recorded floor
   prints a warning but never fails (CI timing is too noisy). *)

let benchmark_fields =
  [ "name"; "events"; "wall_s"; "events_per_sec"; "chunks_delivered";
    "chunks_per_sec"; "minor_words_per_event"; "bytes_per_flow";
    "peak_rss_bytes" ]

(* (name, minor_words_per_event, events_per_sec, bytes_per_flow) *)
let gate ~smoke results =
  let table = if smoke then alloc_baseline_smoke else alloc_baseline in
  let btable = if smoke then bytes_baseline_smoke else bytes_baseline in
  let failures = ref 0 in
  List.iter
    (fun (name, mwpe, eps, bpf) ->
      (match List.assoc_opt name btable with
      | Some base when bpf > bytes_slack *. base ->
        incr failures;
        Printf.eprintf
          "FAIL %-14s %8.1f bytes/flow exceeds %.2fx baseline %.1f\n" name bpf
          bytes_slack base
      | Some base ->
        Printf.printf
          "ok   %-14s %8.1f bytes/flow (baseline %.1f, limit %.1f)\n" name bpf
          base (bytes_slack *. base)
      | None -> ());
      (match List.assoc_opt name table with
      | Some base when mwpe > alloc_slack *. base ->
        incr failures;
        Printf.eprintf
          "FAIL %-14s %8.1f minor-w/ev exceeds %.0fx baseline %.1f\n" name
          mwpe alloc_slack base
      | Some base ->
        Printf.printf "ok   %-14s %8.1f minor-w/ev (baseline %.1f, limit %.1f)\n"
          name mwpe base (alloc_slack *. base)
      | None ->
        incr failures;
        Printf.eprintf
          "FAIL %-14s has no frozen allocation baseline — add one to \
           bench/perf/perf.ml\n"
          name);
      match List.assoc_opt (name ^ "_events_per_sec") baseline with
      | Some floor when eps < floor ->
        Printf.printf
          "note %-14s %12.0f ev/s below recorded floor %.0f (advisory)\n" name
          eps floor
      | _ -> ())
    results;
  if !failures > 0 then begin
    Printf.eprintf "%d allocation regression(s)\n" !failures;
    exit 1
  end

let check_file path =
  let read_all ic =
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    Buffer.contents b
  in
  let ic = open_in path in
  let text = read_all ic in
  close_in ic;
  let fail msg =
    Printf.eprintf "BENCH_core.json schema drift: %s\n" msg;
    exit 1
  in
  match Obs.Json.parse text with
  | Error e -> fail ("not valid JSON: " ^ e)
  | Ok j ->
    (match Obs.Json.member "schema" j with
    | Some (Obs.Json.Str s) when s = schema_version -> ()
    | Some (Obs.Json.Str s) ->
      fail ("schema is " ^ s ^ ", want " ^ schema_version)
    | _ -> fail "missing string field: schema");
    List.iter
      (fun f ->
        match Obs.Json.member f j with
        | Some (Obs.Json.Num _) -> ()
        | _ -> fail ("missing numeric field: " ^ f))
      [ "trials"; "domains"; "host_cores" ];
    let smoke =
      match Obs.Json.member "smoke" j with
      | Some (Obs.Json.Bool b) -> b
      | _ -> fail "missing bool field: smoke"
    in
    (match Obs.Json.member "rng_seed" j with
    | Some (Obs.Json.Num _) -> ()
    | _ -> fail "missing numeric field: rng_seed");
    (match Obs.Json.member "baseline" j with
    | Some (Obs.Json.Obj fields) ->
      List.iter
        (fun (k, _) ->
          match List.assoc_opt k fields with
          | Some (Obs.Json.Num _) -> ()
          | _ -> fail ("baseline missing numeric field: " ^ k))
        baseline
    | _ -> fail "missing object field: baseline");
    let results =
      match Obs.Json.member "benchmarks" j with
      | Some (Obs.Json.List (_ :: _ as bs)) ->
        List.map
          (fun b ->
            List.iter
              (fun field ->
                match Obs.Json.member field b with
                | Some (Obs.Json.Num _) when field <> "name" -> ()
                | Some (Obs.Json.Str _) when field = "name" -> ()
                | _ -> fail ("benchmark entry missing field: " ^ field))
              benchmark_fields;
            let str f =
              match Obs.Json.member f b with
              | Some (Obs.Json.Str s) -> s
              | _ -> fail ("benchmark entry missing field: " ^ f)
            in
            let num f =
              match Obs.Json.member f b with
              | Some (Obs.Json.Num x) -> x
              | _ -> fail ("benchmark entry missing field: " ^ f)
            in
            ( str "name",
              num "minor_words_per_event",
              num "events_per_sec",
              num "bytes_per_flow" ))
          bs
      | _ -> fail "missing non-empty list field: benchmarks"
    in
    Printf.printf "%s: schema ok (%s)\n" path schema_version;
    gate ~smoke results;
    exit 0

(* ------------------------------------------------------------------ *)

let () =
  let smoke = ref false in
  let check_fresh = ref false in
  let out = ref "BENCH_core.json" in
  let profile_out = ref None in
  let trials = ref None in
  let domains = ref 1 in
  let args = Array.to_list Sys.argv in
  let is_path p = String.length p > 2 && String.sub p 0 2 <> "--" in
  let usage () =
    Printf.eprintf
      "usage: perf [--smoke] [--trials N] [--domains D] [--out FILE] \
       [--check [FILE]] [--profile [FILE]]\n";
    exit 2
  in
  let posint name s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "%s wants a positive integer, got %s\n" name s;
      exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--trials" :: n :: rest ->
      trials := Some (posint "--trials" n);
      parse rest
    | "--domains" :: d :: rest ->
      domains := posint "--domains" d;
      parse rest
    | "--out" :: path :: rest ->
      out := path;
      parse rest
    | "--check" :: path :: _ when is_path path -> check_file path
    | "--check" :: rest ->
      check_fresh := true;
      parse rest
    | "--profile" :: path :: rest when is_path path ->
      profile_out := Some path;
      parse rest
    | "--profile" :: rest ->
      profile_out := Some "BENCH_profile.json";
      parse rest
    | a :: rest ->
      if a <> Sys.argv.(0) then usage ();
      parse rest
  in
  parse args;
  Random.init rng_seed;
  (* warm the ISP-zoo memo outside any measured window: the zoo
     benchmark tracks protocol cost, not one-off graph construction,
     and the frozen alloc baselines were recorded against a warm
     cache (the deleted isp_zoo_pool run used to build the graph
     first — list elements evaluate right-to-left) *)
  ignore (Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone);
  let churn_total = if !smoke then 20_000 else 1_000_000 in
  let dumbbell_packets = if !smoke then 400 else 40_000 in
  let zoo_chunks = if !smoke then 40 else 1_000 in
  let flow_count = if !smoke then 20_000 else 1_000_000 in
  let repeat =
    match !trials with Some n -> n | None -> if !smoke then 1 else 3
  in
  let domains = !domains in
  (* flows_1m publishes its memory probes through this ref; always one
     trial in the main domain — a memory high-water benchmark has no
     best-of-N, and sibling domains would share the RSS counter *)
  let flow_stats = ref None in
  let outcomes =
    [
      measure ~repeat ~domains "engine_churn" (engine_churn ~total:churn_total);
      measure ~repeat ~domains "dumbbell" (dumbbell ~packets:dumbbell_packets);
      measure ~repeat ~domains "isp_zoo" (isp_zoo ~chunks:zoo_chunks);
      (* same protocol macro-benchmark with the graceful-degradation
         layer on: its allocation delta over isp_zoo is the hot-path
         cost of admission checks, pressure records and the breaker *)
      measure ~repeat ~domains "overload"
        (isp_zoo ~overload:Overload.Config.default ~chunks:zoo_chunks);
      (let o =
         measure ~repeat:1 ~domains:1 "flows_1m"
           (flows_1m ~flows:flow_count ~stats:flow_stats)
       in
       match !flow_stats with
       | Some (bytes_per_flow, peak_rss_bytes) ->
         { o with bytes_per_flow; peak_rss_bytes }
       | None -> o);
    ]
  in
  let j = report ~smoke:!smoke ~trials:repeat ~domains outcomes in
  let oc = open_out !out in
  output_string oc (Obs.Json.to_string j);
  output_char oc '\n';
  close_out oc;
  List.iter
    (fun o ->
      Printf.printf "%-14s %9d events  %8.3f s  %12.0f ev/s  %6d chunks  %8.1f minor-w/ev\n"
        o.name o.events o.wall_s
        (if o.wall_s > 0. then float_of_int o.events /. o.wall_s else 0.)
        o.chunks
        (if o.events > 0 then o.minor_words /. float_of_int o.events else 0.);
      if o.bytes_per_flow > 0. then
        Printf.printf "%-14s %9.1f bytes/flow-entry  %.1f MB peak RSS\n" ""
          o.bytes_per_flow
          (o.peak_rss_bytes /. 1048576.))
    outcomes;
  Printf.printf "wrote %s\n" !out;
  (match !profile_out with
  | Some path -> profile_run ~chunks:zoo_chunks path
  | None -> ());
  if !check_fresh then
    gate ~smoke:!smoke
      (List.map
         (fun o ->
           ( o.name,
             (if o.events > 0 then o.minor_words /. float_of_int o.events
              else 0.),
             (if o.wall_s > 0. then float_of_int o.events /. o.wall_s else 0.),
             o.bytes_per_flow ))
         outcomes)
