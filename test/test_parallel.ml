(* Parallel sweep harness tests: the deterministic domain pool
   (ordering, clamping, exception choice) and the end-to-end
   byte-identity guarantee — the resilience grid and a 50-seed sweep
   must produce the same bytes at --domains 1, 2 and 4. *)

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_empty_jobs () =
  Alcotest.(check int) "no jobs, no results" 0
    (Array.length (Parallel.Pool.run_jobs ~domains:4 [||]))

let test_map_order () =
  let squares =
    Parallel.Pool.run_jobs ~domains:4 (Array.init 100 (fun x () -> x * x))
  in
  Alcotest.(check (array int))
    "results in job-index order"
    (Array.init 100 (fun x -> x * x))
    squares

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

let test_inline_single_domain () =
  (* one worker, the default, is the calling domain itself: every job
     runs inline, in index order, without spawning a domain *)
  let caller = Domain.self () in
  let order = ref [] in
  let jobs =
    Array.init 5 (fun i () ->
        order := i :: !order;
        Domain.self () = caller)
  in
  List.iter
    (fun run ->
      order := [];
      Alcotest.(check (array bool))
        "every job ran in the calling domain" (Array.make 5 true) (run jobs);
      Alcotest.(check (list int))
        "jobs ran in index order" [ 0; 1; 2; 3; 4 ] (List.rev !order))
    [ Parallel.Pool.run_jobs ~domains:1; Parallel.Pool.run_jobs ?domains:None ]

let test_bad_domains () =
  Alcotest.check_raises "domains < 1 rejected"
    (Invalid_argument "Parallel.Pool.run_jobs: domains < 1") (fun () ->
      ignore (Parallel.Pool.run_jobs ~domains:0 [| (fun () -> ()) |]))

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
  let q = Sim.Event_queue.create ~vacant:() in
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
  let jobs = Array.init 50 (fun seed () -> queue_sorts seed) in
  let run domains =
    let verdicts = Parallel.Pool.run_jobs ~domains jobs in
    Alcotest.(check bool)
      (Printf.sprintf "sweep equal at domains=%d" domains)
      true (Array.for_all fst verdicts);
    Array.map snd verdicts
  in
  let d1 = run 1 in
  Alcotest.(check (array string)) "verdicts identical at domains=2" d1 (run 2);
  Alcotest.(check (array string)) "verdicts identical at domains=4" d1 (run 4)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "empty job list" `Quick test_empty_jobs;
          Alcotest.test_case "map keeps order" `Quick test_map_order;
          Alcotest.test_case "more domains than jobs" `Quick
            test_more_domains_than_jobs;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "one domain runs inline" `Quick
            test_inline_single_domain;
          Alcotest.test_case "domains < 1 rejected" `Quick test_bad_domains;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "resilience grid at domains 1/2/4" `Quick
            test_resilience_grid_determinism;
          Alcotest.test_case "50-seed sweep at domains 1/2/4" `Quick
            test_differential_sweep_determinism;
        ] );
    ]
