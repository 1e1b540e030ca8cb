(* Workload engine: statistical laws and determinism.

   The law tests derive their tolerances in-test from the exact
   distributions the generators draw from (Oracles.zipf and
   Oracles.pareto_survival, the exponential inter-arrival moments): each
   bound is z standard errors of the estimator under the law being
   checked, z = 5 (two-sided miss probability < 1e-6 per comparison),
   never a hand-tuned margin.  Every test also runs at three distinct
   seeds — and because generation is pure, a pass is a pass forever,
   not a lucky draw. *)

let seeds = [ 7L; 101L; 9001L ]

let at_seeds name f =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "%s (seed %Ld)" name seed)
        `Quick
        (fun () -> f seed))
    seeds

let z = 5.

(* ------------------------------------------------------------------ *)
(* Catalog: Zipf rank-frequency *)

(* Weighted least squares of log(empirical frequency) on log(rank).
   On the exact probabilities the slope is exactly -alpha (finite-N
   Zipf is an exact power law), so the estimator's deviation is pure
   sampling noise: log p-hat - log p ~ (p-hat - p)/p with binomial sd
   sqrt((1-p)/(N p)), and the slope is the w-weighted sum of the
   per-rank deviations.  The small additive slack covers the
   second-order term of the log linearisation. *)
let zipf_slope alpha seed =
  let n = 50 and draws = 20_000 in
  let cat = Workload.Catalog.create ~alpha ~objects:n ~seed () in
  let probability = Support.Oracles.zipf ~alpha ~objects:n in
  let rng = Sim.Rng.create (Int64.add seed 1L) in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let id = Workload.Catalog.draw cat rng in
    counts.(id) <- counts.(id) + 1
  done;
  let fn = float_of_int n in
  let x = Array.init n (fun k -> log (float_of_int (k + 1))) in
  let xbar = Array.fold_left ( +. ) 0. x /. fn in
  let sxx = Array.fold_left (fun a xi -> a +. ((xi -. xbar) ** 2.)) 0. x in
  let w = Array.map (fun xi -> (xi -. xbar) /. sxx) x in
  let slope = ref 0. and var = ref 0. in
  Array.iteri
    (fun k c ->
      if c = 0 then
        Alcotest.failf "rank %d drew no samples — widen draws" (k + 1);
      let p = probability k in
      slope := !slope +. (w.(k) *. log (float_of_int c /. float_of_int draws));
      var := !var +. (w.(k) ** 2.) *. (1. -. p) /. (float_of_int draws *. p))
    counts;
  let tolerance = (z *. sqrt !var) +. 0.02 in
  if Float.abs (!slope +. alpha) > tolerance then
    Alcotest.failf "Zipf slope %.4f vs -%.2f exceeds %.4f" !slope alpha
      tolerance;
  (* and every rank's raw frequency within its own binomial bound *)
  Array.iteri
    (fun k c ->
      let p = probability k in
      let se = sqrt (p *. (1. -. p) /. float_of_int draws) in
      let dev =
        Float.abs ((float_of_int c /. float_of_int draws) -. p)
      in
      if dev > (z *. se) +. (1. /. float_of_int draws) then
        Alcotest.failf "rank %d frequency off by %.5f (> %.5f)" (k + 1) dev
          ((z *. se) +. (1. /. float_of_int draws)))
    counts

let test_zipf_slope seed =
  List.iter (fun alpha -> zipf_slope alpha seed) [ 0.6; 1.0 ]

(* the probabilities the tolerance derivation leans on must themselves
   sum to one and decay monotonically *)
let test_zipf_mass () =
  let probability = Support.Oracles.zipf ~alpha:0.8 ~objects:100 in
  let total = ref 0. in
  for k = 0 to 99 do
    total := !total +. probability k;
    if k > 0 then
      Alcotest.(check bool) "monotone" true
        (probability k <= probability (k - 1))
  done;
  Alcotest.(check (float 1e-9)) "sums to 1" 1. !total

(* ------------------------------------------------------------------ *)
(* Catalog: bounded-Pareto chunk counts *)

(* each object's chunk count is an iid bounded-Pareto draw, so a large
   catalogue is a large sample; Oracles.pareto_survival is the exact law of
   the discretised draw, making the empirical tail a binomial whose
   standard error we can bound *)
let test_pareto_tail seed =
  let objects = 4_000 in
  let cat =
    Workload.Catalog.create ~chunk_min:4 ~chunk_max:256 ~chunk_shape:1.2
      ~objects ~seed ()
  in
  let fobjects = float_of_int objects in
  List.iter
    (fun k ->
      let p =
        Support.Oracles.pareto_survival ~shape:1.2 ~chunk_min:4 ~chunk_max:256 k
      in
      let tail = ref 0 in
      for id = 0 to objects - 1 do
        if Workload.Catalog.chunks cat id >= k then incr tail
      done;
      let emp = float_of_int !tail /. fobjects in
      let se = sqrt (p *. (1. -. p) /. fobjects) in
      if Float.abs (emp -. p) > (z *. se) +. (1. /. fobjects) then
        Alcotest.failf "tail mass at %d: %.5f vs exact %.5f (se %.5f)" k emp
          p se)
    [ 4; 6; 8; 12; 16; 24; 32; 64; 128; 256 ];
  (* the bounds are hard, not statistical *)
  for id = 0 to objects - 1 do
    let c = Workload.Catalog.chunks cat id in
    if c < 4 || c > 256 then Alcotest.failf "chunks %d out of bounds" c
  done

(* ------------------------------------------------------------------ *)
(* Arrivals: Poisson law and thinning *)

let test_poisson_interarrivals seed =
  let rate = 5. and n = 20_000 in
  let a = Workload.Arrivals.create ~rate ~seed () in
  let fn = float_of_int n in
  let prev = ref 0. and sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let t = Workload.Arrivals.next a in
    let gap = t -. !prev in
    if gap <= 0. then Alcotest.fail "arrivals must strictly increase";
    prev := t;
    sum := !sum +. gap;
    sumsq := !sumsq +. (gap *. gap)
  done;
  let mean = !sum /. fn in
  let var = (!sumsq /. fn) -. (mean *. mean) in
  let mu = 1. /. rate in
  (* sd of the sample mean of exponentials is mu / sqrt n *)
  let se_mean = mu /. sqrt fn in
  if Float.abs (mean -. mu) > z *. se_mean then
    Alcotest.failf "inter-arrival mean %.5f vs %.5f (se %.5f)" mean mu se_mean;
  (* Var(S^2) for exponentials ~ 8 sigma^4 / n *)
  let se_var = sqrt 8. *. mu *. mu /. sqrt fn in
  if Float.abs (var -. (mu *. mu)) > z *. se_var then
    Alcotest.failf "inter-arrival variance %.6f vs %.6f (se %.6f)" var
      (mu *. mu) se_var

(* a flash crowd multiplies the rate, so the count of arrivals inside
   the burst window is Poisson with mass boost * rate * duration —
   the thinning sampler has to reproduce it, not just the base rate *)
let test_burst_mass seed =
  let rate = 40. in
  let burst = Workload.Arrivals.burst ~at:10. ~duration:5. ~boost:3. in
  let a = Workload.Arrivals.create ~rate ~bursts:[ burst ] ~seed () in
  let before = ref 0 and inside = ref 0 in
  let rec count () =
    let t = Workload.Arrivals.next a in
    if t < 20. then begin
      if t >= 10. && t < 15. then incr inside
      else if t < 10. then incr before;
      count ()
    end
  in
  count ();
  let check_window label count mass =
    let sd = sqrt mass in
    if Float.abs (float_of_int count -. mass) > z *. sd then
      Alcotest.failf "%s: %d arrivals vs Poisson(%.0f)" label count mass
  in
  check_window "pre-burst" !before (rate *. 10.);
  check_window "burst window" !inside (3. *. rate *. 5.)

(* the rate curve itself is deterministic — check the closed form and
   that the thinning envelope really dominates it *)
let test_rate_curve () =
  let burst = Workload.Arrivals.burst ~at:100. ~duration:50. ~boost:2. in
  let a =
    Workload.Arrivals.create ~diurnal_amplitude:0.5 ~diurnal_period:1000.
      ~bursts:[ burst ] ~rate:10. ~seed:1L ()
  in
  let expected t =
    let d = 10. *. (1. +. (0.5 *. sin (2. *. Float.pi *. t /. 1000.))) in
    if t >= 100. && t < 150. then 2. *. d else d
  in
  List.iter
    (fun t ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "rate at %.0f" t)
        (expected t)
        (Workload.Arrivals.rate_at a t))
    [ 0.; 99.; 100.; 149.; 150.; 250.; 750. ];
  let peak = Workload.Arrivals.peak_rate a in
  for i = 0 to 2_000 do
    let t = float_of_int i in
    if Workload.Arrivals.rate_at a t > peak +. 1e-9 then
      Alcotest.failf "envelope %.3f below rate at t=%.0f" peak t
  done

(* ------------------------------------------------------------------ *)
(* Determinism *)

let graph () =
  Topology.Builders.dumbbell ~access_capacity:10e6 ~bottleneck_capacity:5e6 4

let spec_of_seed seed =
  {
    Workload.Gen.default with
    Workload.Gen.seed;
    horizon = 5.;
    max_requests = 128;
    rate = 10.;
    diurnal_amplitude = 0.3;
    diurnal_period = 10.;
    bursts = [ Workload.Arrivals.burst ~at:1. ~duration:1. ~boost:2. ];
  }

let to_bytes requests =
  String.concat ""
    (List.map
       (fun r -> Obs.Json.to_string (Workload.Request.to_json r) ^ "\n")
       requests)

let prop_same_seed_identical =
  QCheck.Test.make ~name:"same seed, two fresh generators, same bytes"
    ~count:20 QCheck.int64 (fun seed ->
      let g = graph () in
      let spec = spec_of_seed seed in
      let a = Workload.Gen.requests spec g in
      let b = Workload.Gen.requests spec g in
      List.length a = List.length b
      && List.for_all2 ( = ) a b
      && String.equal (to_bytes a) (to_bytes b))

let prop_stream_well_formed =
  QCheck.Test.make ~name:"generated streams are well-formed" ~count:20
    QCheck.int64 (fun seed ->
      let g = graph () in
      let spec = spec_of_seed seed in
      let requests = Workload.Gen.requests spec g in
      let sorted = ref true and prev = ref neg_infinity in
      List.iter
        (fun (r : Workload.Request.t) ->
          if r.start < !prev then sorted := false;
          prev := r.start)
        requests;
      !sorted
      && List.length requests <= spec.Workload.Gen.max_requests
      && List.for_all
           (fun (r : Workload.Request.t) ->
             r.start >= 0.
             && r.start < spec.Workload.Gen.horizon
             && r.src <> r.dst
             && r.content >= 0
             && r.content < spec.Workload.Gen.objects
             && r.chunks >= spec.Workload.Gen.chunk_min
             && r.chunks <= spec.Workload.Gen.chunk_max)
           requests)

let test_distinct_seeds_differ () =
  let g = graph () in
  let a = Workload.Gen.requests (spec_of_seed 7L) g in
  let b = Workload.Gen.requests (spec_of_seed 8L) g in
  Alcotest.(check bool) "different seeds, different streams" false
    (String.equal (to_bytes a) (to_bytes b))

(* the --domains guarantee: a pool of jobs each generating its own
   stream joins to the same bytes at any domain count, because
   Gen.requests is a pure function of (spec, graph) *)
let test_domains_identical () =
  let g = graph () in
  let jobs =
    Array.of_list
      (List.map
         (fun seed () -> to_bytes (Workload.Gen.requests (spec_of_seed seed) g))
         seeds)
  in
  let baseline = Parallel.Pool.run_jobs ~domains:1 jobs in
  List.iter
    (fun domains ->
      let got = Parallel.Pool.run_jobs ~domains jobs in
      Array.iteri
        (fun i bytes ->
          if not (String.equal bytes baseline.(i)) then
            Alcotest.failf "stream %d differs at domains=%d" i domains)
        got)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Lazy stream: requests_seq is the primitive, requests the wrapper *)

(* the contract in gen.mli: List.of_seq (requests_seq spec g) =
   requests spec g, byte for byte *)
let test_seq_matches_list seed =
  let g = graph () in
  let spec = spec_of_seed seed in
  let from_seq = List.of_seq (Workload.Gen.requests_seq spec g) in
  let from_list = Workload.Gen.requests spec g in
  Alcotest.(check int) "same length" (List.length from_list)
    (List.length from_seq);
  Alcotest.(check string) "same bytes" (to_bytes from_list)
    (to_bytes from_seq)

(* replay makes the imperative generator state persistent: forcing a
   prefix twice (or a prefix then the whole stream) must not misdraw *)
let test_seq_persistent seed =
  let g = graph () in
  let spec = spec_of_seed seed in
  let s = Workload.Gen.requests_seq spec g in
  let prefix1 = List.of_seq (Seq.take 5 s) in
  let prefix2 = List.of_seq (Seq.take 5 s) in
  Alcotest.(check string) "prefix forced twice" (to_bytes prefix1)
    (to_bytes prefix2);
  let full = List.of_seq s in
  Alcotest.(check string) "partial forcing does not shift the tail"
    (to_bytes (Workload.Gen.requests spec g))
    (to_bytes full)

(* lazy consumption: taking n of an (effectively) unbounded stream
   yields exactly the n requests a generator capped at n produces —
   the consumer, not the spec, can bound the traversal *)
let test_seq_prefix seed =
  let g = graph () in
  let unbounded =
    { (spec_of_seed seed) with
      Workload.Gen.max_requests = 1_000_000;
      horizon = 1e6 }
  in
  let capped = { unbounded with Workload.Gen.max_requests = 7 } in
  let prefix =
    List.of_seq (Seq.take 7 (Workload.Gen.requests_seq unbounded g))
  in
  Alcotest.(check string) "take 7 = max_requests 7"
    (to_bytes (Workload.Gen.requests capped g))
    (to_bytes prefix)

(* Persistence by replay under random forcing schedules: on one stream
   value, a prefix forced twice, an earlier node re-forced after a
   later one, two traversals interleaved, and the node that ends the
   stream (at the horizon or the cap) re-forced, each request equal to
   [Gen.requests] byte for byte.  Spans of 0.5-5 s at ~10 requests/s
   against caps of 0-60 cut some streams at the horizon, some at the
   cap. *)
let prop_seq_persistent_by_replay =
  let gen =
    QCheck.Gen.(
      quad int64 (pair (int_range 1 10) (int_range 0 60))
        (pair (int_range 0 64) (int_range 0 64))
        (list_size (int_range 0 40) bool))
  in
  QCheck.Test.make ~name:"replayed stream under any forcing order"
    ~count:60
    (QCheck.make gen
       ~print:
         QCheck.Print.(
           quad Int64.to_string (pair int int) (pair int int) (list bool)))
    (fun (seed, (h, cap), (a, b), turns) ->
      let g = graph () in
      let spec =
        { (spec_of_seed seed) with
          Workload.Gen.horizon = 0.5 *. float_of_int h;
          max_requests = cap }
      in
      let reference = Array.of_list (Workload.Gen.requests spec g) in
      let len = Array.length reference in
      let byte r = to_bytes [ r ] in
      let s = Workload.Gen.requests_seq spec g in
      (* force node [i]: the reference's request [i], or the end *)
      let force what i node =
        match node () with
        | Seq.Cons (r, next) ->
          if i >= len || byte r <> byte reference.(i) then
            QCheck.Test.fail_reportf "%s: node %d differs" what i;
          Some next
        | Seq.Nil ->
          if i <> len then
            QCheck.Test.fail_reportf "%s: ended at %d of %d" what i len;
          None
      in
      let rec walk what i node k =
        if k > 0 then
          match force what i node with
          | Some next -> walk what (i + 1) next (k - 1)
          | None -> ()
      in
      (* the node [k] steps after [node], which is node [i] *)
      let rec nth i node k =
        if k = 0 then node
        else
          match force "seek" i node with
          | Some next -> nth (i + 1) next (k - 1)
          | None -> node
      in
      let k = a mod (len + 2) in
      walk "prefix" 0 s k;
      walk "prefix again" 0 s k;
      let a = a mod (len + 1) and b = b mod (len + 1) in
      let i = min a b and j = max a b in
      let early = nth 0 s i in
      ignore (force "later" j (nth i early (j - i)));
      walk "earlier after later" i early max_int;
      let step what = function
        | Some (i, node) ->
          Option.map (fun next -> (i + 1, next)) (force what i node)
        | None -> None
      in
      let rec interleave ta tb = function
        | true :: rest -> interleave (step "A" ta) tb rest
        | false :: rest -> interleave ta (step "B" tb) rest
        | [] ->
          if Option.is_some ta || Option.is_some tb then
            interleave (step "A" ta) (step "B" tb) []
      in
      interleave (Some (0, s)) (Some (0, s)) turns;
      let tail = nth 0 s len in
      ignore (force "end" len tail);
      ignore (force "end again" len tail);
      if len > 0 then walk "last again" (len - 1) (nth 0 s (len - 1)) max_int;
      to_bytes (List.of_seq s) = to_bytes (Array.to_list reference))

let test_catalog_pure seed =
  let mk () =
    Workload.Catalog.create ~alpha:0.9 ~chunk_min:2 ~chunk_max:128
      ~chunk_shape:1.5 ~objects:200 ~seed ()
  in
  let a = mk () and b = mk () in
  for id = 0 to 199 do
    Alcotest.(check int) "same chunk count"
      (Workload.Catalog.chunks a id)
      (Workload.Catalog.chunks b id)
  done

let test_arrivals_pure seed =
  let mk () = Workload.Arrivals.create ~rate:20. ~seed () in
  let a = mk () and b = mk () in
  for _ = 1 to 1_000 do
    let ta = Workload.Arrivals.next a and tb = Workload.Arrivals.next b in
    if ta <> tb then Alcotest.fail "same-seed arrival streams diverged"
  done

(* ------------------------------------------------------------------ *)
(* Trace round trip *)

let test_trace_round_trip seed =
  let g = graph () in
  let requests = Workload.Gen.requests (spec_of_seed seed) g in
  Alcotest.(check bool) "non-empty stream" true (requests <> []);
  let path = Filename.temp_file "workload" ".ndjson" in
  Workload.Trace.save_file path requests;
  (match Workload.Trace.load_file path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok loaded ->
    Alcotest.(check int) "same length" (List.length requests)
      (List.length loaded);
    List.iter2
      (fun a b ->
        if a <> b then
          let show r = Obs.Json.to_string (Workload.Request.to_json r) in
          Alcotest.failf "round trip changed %s into %s" (show a) (show b))
      requests loaded;
    match Workload.Trace.validate g loaded with
    | Ok () -> ()
    | Error e -> Alcotest.failf "validate rejected own trace: %s" e);
  Sys.remove path

let test_trace_rejects_foreign () =
  let g = graph () in
  let bad =
    [ { Workload.Request.start = 0.; src = 0; dst = 999; content = 0;
        chunks = 1 } ]
  in
  match Workload.Trace.validate g bad with
  | Ok () -> Alcotest.fail "out-of-range endpoint must be rejected"
  | Error _ -> ()

let test_request_json_rejects () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error e -> Alcotest.failf "test input must be valid JSON: %s" e
      | Ok j -> begin
        match Workload.Request.of_json j with
        | Ok _ -> Alcotest.failf "must reject %s" s
        | Error _ -> ()
      end)
    [
      {|{"t":0,"src":1,"dst":2,"content":3}|} (* missing chunks *);
      {|{"t":-1,"src":1,"dst":2,"content":3,"chunks":4}|};
      {|{"t":0,"src":1,"dst":1,"content":3,"chunks":4}|};
      {|{"t":0,"src":1,"dst":2,"content":3,"chunks":0}|};
      {|{"t":0,"src":-1,"dst":2,"content":3,"chunks":4}|};
      {|[1,2,3]|};
    ]

(* ------------------------------------------------------------------ *)
(* Session draws *)

(* four one-way links hang off a duplex line: node 0 reaches every
   node, but nodes 4-7 never reach 0-3, so the graph is not strongly
   connected while a forward search from 0 finds everything *)
let one_way_tail () =
  let b = Topology.Graph.Builder.create () in
  for i = 0 to 7 do
    ignore (Topology.Graph.Builder.add_node b (Printf.sprintf "n%d" i))
  done;
  List.iter
    (fun (u, v) -> Topology.Graph.Builder.add_edge b u v)
    [ (0, 1); (1, 2); (2, 3) ];
  List.iter
    (fun (u, v) -> Topology.Graph.Builder.add_link b u v)
    [ (3, 4); (4, 5); (5, 6); (6, 7); (7, 5) ];
  Topology.Graph.Builder.build b

let draws_digest session =
  let buf = Buffer.create 16_384 in
  for _ = 1 to 2000 do
    let p, c = Workload.Session.draw session in
    Buffer.add_string buf (Printf.sprintf "%d,%d;" p c)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* the first 2,000 pairs, pinned from the per-producer reachability
   trees: a routability shortcut must not move a single draw *)
let test_session_draws_pinned () =
  let ebone = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let core_edge =
    Workload.Session.create ~producers:[ Topology.Node.Core ]
      ~consumers:[ Topology.Node.Edge ] ~seed:3L ebone
  in
  List.iter
    (fun (what, session, pinned) ->
      Alcotest.(check string) what pinned (draws_digest session))
    [
      ( "ebone",
        Workload.Session.create ~seed:1L ebone,
        "7a9a247c59250341853f7a4d960d73e2" );
      ("ebone core to edge", core_edge, "efbfd816726c4db930776372520c3e76");
      ( "one-way tail",
        Workload.Session.create ~seed:1L (one_way_tail ()),
        "94c420294346352bbd8d4307dfcc0dd8" );
    ]

(* ------------------------------------------------------------------ *)
(* Stream gate: a single-pass consumer keeps nothing, so the stream
   must promote nothing, and a draw allocates what it returns.  Minor
   and promoted words are deterministic at fixed inputs. *)

let gate_spec =
  {
    Workload.Gen.default with
    Workload.Gen.seed = 1L;
    horizon = 1e9;
    max_requests = 100_000;
    alpha = 1.2;
    chunk_min = 64;
    chunk_max = 256;
  }

(* 100k EBONE requests through [Seq.iter].  A memoized stream promoted
   every cell (1.5M words, 15 per request); what a replayed stream
   promotes is its generator, once (458 words measured).  Minor words
   per request are frozen with 1.25x headroom. *)
let test_stream_gate () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
    let n = ref 0 in
    (* promote the graph now, not inside the measured span *)
    Gc.minor ();
    let before = Gc.quick_stat () in
    Seq.iter (fun _ -> incr n) (Workload.Gen.requests_seq gate_spec g);
    let after = Gc.quick_stat () in
    Alcotest.(check int) "requests" 100_000 !n;
    let promoted = after.promoted_words -. before.promoted_words in
    let per_request =
      (after.minor_words -. before.minor_words) /. float_of_int !n
    in
    let frozen_promoted = 1_000. in
    if promoted > frozen_promoted then
      Alcotest.failf "%g promoted words, frozen bound %g" promoted
        frozen_promoted;
    let frozen = 18.4 in
    if per_request > 1.25 *. frozen then
      Alcotest.failf "%g minor words/request, frozen %g, bound %g"
        per_request frozen (1.25 *. frozen)

(* An arrival draw allocates its boxed result alone: its candidates
   scale [Sim.Rng.bits53] locally, so they box nothing.  A session
   draw allocates its pair. *)
let test_draw_gate () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let n = 10_000 in
    let per_draw what frozen f =
      let before = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      if words > frozen then
        Alcotest.failf "%g minor words per %s draw, frozen %g" words what
          frozen
    in
    let arrivals = Workload.Arrivals.create ~rate:8. ~seed:3L () in
    per_draw "arrival" 2. (fun () -> Workload.Arrivals.next arrivals);
    let ebone = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
    let session = Workload.Session.create ~seed:3L ebone in
    per_draw "session" 3. (fun () -> Workload.Session.draw session)

(* ------------------------------------------------------------------ *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "zipf",
        at_seeds "rank-frequency slope" test_zipf_slope
        @ [ Alcotest.test_case "exact mass" `Quick test_zipf_mass ] );
      ("pareto", at_seeds "tail mass" test_pareto_tail);
      ( "arrivals",
        at_seeds "poisson inter-arrivals" test_poisson_interarrivals
        @ at_seeds "burst mass" test_burst_mass
        @ [ Alcotest.test_case "rate curve" `Quick test_rate_curve ] );
      ( "determinism",
        qc [ prop_same_seed_identical; prop_stream_well_formed ]
        @ at_seeds "catalog pure" test_catalog_pure
        @ at_seeds "arrivals pure" test_arrivals_pure
        @ [
            Alcotest.test_case "distinct seeds differ" `Quick
              test_distinct_seeds_differ;
            Alcotest.test_case "byte-identical at domains 1/2/4" `Quick
              test_domains_identical;
          ] );
      ( "seq",
        at_seeds "of_seq = requests" test_seq_matches_list
        @ at_seeds "replayed prefix is persistent" test_seq_persistent
        @ at_seeds "lazy prefix = capped list" test_seq_prefix
        @ qc [ prop_seq_persistent_by_replay ] );
      ( "session",
        [ Alcotest.test_case "draws pinned" `Quick test_session_draws_pinned ]
      );
      ( "stream gate",
        [
          Alcotest.test_case "stream promotes nothing" `Quick test_stream_gate;
          Alcotest.test_case "draws allocate results" `Quick test_draw_gate;
        ] );
      ( "trace",
        at_seeds "round trip" test_trace_round_trip
        @ [
            Alcotest.test_case "foreign trace rejected" `Quick
              test_trace_rejects_foreign;
            Alcotest.test_case "bad request json rejected" `Quick
              test_request_json_rejects;
          ] );
    ]
