(* Parallel sweep harness tests: the deterministic domain pool
   (ordering, clamping, exception choice), Obs.Snapshot merging, and
   the end-to-end byte-identity guarantee — the resilience grid and a
   50-seed sweep must produce the same bytes at --domains 1, 2 and
   4. *)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_empty_jobs () =
  Alcotest.(check int) "no jobs, no results" 0
    (Array.length (Parallel.Pool.run_jobs ~domains:4 [||]))

let test_map_order () =
  let xs = Array.init 100 Fun.id in
  let squares = Parallel.Pool.map ~domains:4 (fun x -> x * x) xs in
  Alcotest.(check (array int))
    "results in job-index order"
    (Array.map (fun x -> x * x) xs)
    squares

let test_map_list_order () =
  let xs = List.init 37 Fun.id in
  Alcotest.(check (list int))
    "list results follow input order"
    (List.map (fun x -> x + 1) xs)
    (Parallel.Pool.map_list ~domains:3 (fun x -> x + 1) xs)

let test_more_domains_than_jobs () =
  (* the worker count clamps to the job count: with 3 jobs and 8
     requested domains only 2 extra domains spawn, and every job still
     runs exactly once *)
  let hits = Array.make 3 0 in
  let out =
    Parallel.Pool.run_jobs ~domains:8
      (Array.init 3 (fun i () ->
           hits.(i) <- hits.(i) + 1;
           i * 10))
  in
  Alcotest.(check (array int)) "results" [| 0; 10; 20 |] out;
  Alcotest.(check (array int)) "each job ran once" [| 1; 1; 1 |] hits

exception Job_failed of int

let test_exception_lowest_index () =
  (* jobs 2 and 5 both fail; the join must re-raise job 2's exception
     at any domain count, and the surviving jobs still run *)
  List.iter
    (fun domains ->
      let ran = Array.make 8 false in
      let jobs =
        Array.init 8 (fun i () ->
            ran.(i) <- true;
            if i = 2 || i = 5 then raise (Job_failed i);
            i)
      in
      (match Parallel.Pool.run_jobs ~domains jobs with
      | _ -> Alcotest.fail "expected Job_failed"
      | exception Job_failed i ->
        Alcotest.(check int)
          (Printf.sprintf "lowest-indexed failure wins at domains=%d" domains)
          2 i);
      Alcotest.(check (array bool))
        "every job still ran"
        (Array.make 8 true) ran)
    [ 1; 2; 4 ]

let test_bad_domains () =
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Parallel.Pool.run_jobs: domains < 1") (fun () ->
      ignore (Parallel.Pool.run_jobs ~domains:0 [| (fun () -> ()) |]))

(* ------------------------------------------------------------------ *)
(* Obs.Snapshot merging *)

let test_snapshot_merge () =
  let run label gauge_v extra =
    let m = Obs.Metric.create () in
    let c = Obs.Metric.counter m "chunks" in
    for _ = 1 to 10 * label do
      Obs.Metric.incr c
    done;
    Obs.Metric.callback m "custody_bits" (fun () -> gauge_v);
    let h = Obs.Metric.histogram m ~lo:0. ~hi:10. ~bins:2 "fct" in
    Obs.Metric.observe h 1.;
    Obs.Metric.observe h (float_of_int label);
    if extra then ignore (Obs.Metric.counter m "only_in_run2");
    Obs.Metric.snapshot m
  in
  let merged = Obs.Snapshot.merge [ run 1 5. false; run 2 3. true ] in
  let find name =
    (List.find (fun (s : Obs.Metric.sample) -> s.Obs.Metric.name = name) merged)
      .Obs.Metric.value
  in
  (match find "chunks" with
  | Obs.Metric.Counter_v n -> Alcotest.(check int) "counters sum" 30 n
  | _ -> Alcotest.fail "chunks should stay a counter");
  (match find "custody_bits" with
  | Obs.Metric.Gauge_v v ->
    Alcotest.(check (float 0.)) "gauges keep the peak" 5. v
  | _ -> Alcotest.fail "custody_bits should stay a gauge");
  (match find "fct" with
  | Obs.Metric.Histogram_v h ->
    Alcotest.(check int) "histogram counts sum" 4 h.Obs.Metric.count;
    Alcotest.(check (float 1e-9)) "histogram sums add" 5. h.Obs.Metric.sum;
    Alcotest.(check (float 1e-9)) "histogram mean recomputed" 1.25
      h.Obs.Metric.mean
  | _ -> Alcotest.fail "fct should stay a histogram");
  (* first-occurrence order: run 0's instruments, then run 1's new one *)
  Alcotest.(check (list string))
    "instrument order is first-occurrence"
    [ "chunks"; "custody_bits"; "fct"; "only_in_run2" ]
    (List.map (fun (s : Obs.Metric.sample) -> s.Obs.Metric.name) merged)

let test_snapshot_merge_rejects_mismatch () =
  let with_hist bins =
    let m = Obs.Metric.create () in
    ignore (Obs.Metric.histogram m ~lo:0. ~hi:10. ~bins "fct");
    Obs.Metric.snapshot m
  in
  (try
     ignore (Obs.Snapshot.merge [ with_hist 2; with_hist 4 ]);
     Alcotest.fail "bucket-edge mismatch must raise"
   with Invalid_argument _ -> ());
  let counter_m = Obs.Metric.create () in
  ignore (Obs.Metric.counter counter_m "x");
  let gauge_m = Obs.Metric.create () in
  Obs.Metric.callback gauge_m "x" (fun () -> 0.);
  try
    ignore
      (Obs.Snapshot.merge
         [ Obs.Metric.snapshot counter_m; Obs.Metric.snapshot gauge_m ]);
    Alcotest.fail "kind mismatch must raise"
  with Invalid_argument _ -> ()

let test_merge_series () =
  let series label n =
    let s = Obs.Series.create ~labels:[ ("node", "3") ] "custody_bits" in
    for i = 1 to n do
      Obs.Series.add s ~time:(float_of_int i) (float_of_int (label * i))
    done;
    s
  in
  let merged =
    Obs.Snapshot.merge_series
      [ ("runA", [ series 1 3 ]); ("runB", [ series 2 5 ]) ]
  in
  Alcotest.(check int) "all series kept" 2 (List.length merged);
  let a = List.nth merged 0 and b = List.nth merged 1 in
  Alcotest.(check (list (pair string string)))
    "run label prepended"
    [ ("run", "runA"); ("node", "3") ]
    (Obs.Series.labels a);
  Alcotest.(check (list (pair string string)))
    "run order preserved"
    [ ("run", "runB"); ("node", "3") ]
    (Obs.Series.labels b);
  let points = ref [] in
  Obs.Series.iter (fun ~time v -> points := (time, v) :: !points) b;
  Alcotest.(check int) "points copied" 5 (List.length !points);
  Alcotest.(check (pair (float 0.) (float 0.)))
    "point values intact" (5., 10.) (List.hd !points)

(* ------------------------------------------------------------------ *)
(* End-to-end byte-identity at several domain counts *)

let capture_resilience domains =
  Experiments.set_domains domains;
  Fun.protect
    ~finally:(fun () -> Experiments.set_domains 1)
    (fun () ->
      Experiments.capture
        (Experiments.resilience_grid ~stores:[ 100. ] ~levels:[ 0; 2 ]
           ~isp:false))

let test_resilience_grid_determinism () =
  let d1 = capture_resilience 1 in
  Alcotest.(check bool) "grid produced output" true (String.length d1 > 0);
  Alcotest.(check string) "domains=2 bytes = domains=1 bytes" d1
    (capture_resilience 2);
  Alcotest.(check string) "domains=4 bytes = domains=1 bytes" d1
    (capture_resilience 4)

(* a small seed-dependent differential: seeded times popped from an
   event queue against the same times sorted *)
let queue_sorts seed =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let times =
    List.init (20 + Sim.Rng.int rng 30) (fun _ -> Sim.Rng.float rng 1.)
  in
  let q = Sim.Event_queue.create () in
  List.iter (fun time -> ignore (Sim.Event_queue.push q ~time ())) times;
  let rec drain acc =
    match Sim.Event_queue.pop q with
    | Some (t, ()) -> drain (t :: acc)
    | None -> List.rev acc
  in
  let popped = drain [] in
  ( popped = List.sort compare times,
    Printf.sprintf "seed %d: %d times" seed (List.length times) )

let test_differential_sweep_determinism () =
  let seeds = List.init 50 Fun.id in
  let run domains =
    let verdicts = Parallel.Pool.map_list ~domains queue_sorts seeds in
    Alcotest.(check bool)
      (Printf.sprintf "sweep equal at domains=%d" domains)
      true (List.for_all fst verdicts);
    List.map snd verdicts
  in
  let d1 = run 1 in
  Alcotest.(check (list string)) "verdicts identical at domains=2" d1 (run 2);
  Alcotest.(check (list string)) "verdicts identical at domains=4" d1 (run 4)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "empty job list" `Quick test_empty_jobs;
          Alcotest.test_case "map keeps order" `Quick test_map_order;
          Alcotest.test_case "map_list keeps order" `Quick test_map_list_order;
          Alcotest.test_case "more domains than jobs" `Quick
            test_more_domains_than_jobs;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "domains < 1 rejected" `Quick test_bad_domains;
        ] );
      ( "snapshot-merge",
        [
          Alcotest.test_case "counters sum, gauges peak, hists sum" `Quick
            test_snapshot_merge;
          Alcotest.test_case "mismatched instruments rejected" `Quick
            test_snapshot_merge_rejects_mismatch;
          Alcotest.test_case "series gain run labels" `Quick test_merge_series;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "resilience grid at domains 1/2/4" `Quick
            test_resilience_grid_determinism;
          Alcotest.test_case "50-seed sweep at domains 1/2/4" `Quick
            test_differential_sweep_determinism;
        ] );
    ]
