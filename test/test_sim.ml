(* Tests for the simulation core: units, rng, event queue, engine,
   stats, timeline. *)

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_sizes () = check_float "GB" 8e9 (Sim.Units.gigabytes 1.)
let test_units_rates () = check_float "gbps" 4e10 (Sim.Units.gbps 40.)

let test_transmission_time () =
  check_float "1 Mbit over 1 Mbps = 1 s" 1.
    (Sim.Units.transmission_time ~bits:1e6 ~rate:1e6);
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Units.transmission_time: rate <= 0") (fun () ->
      ignore (Sim.Units.transmission_time ~bits:1. ~rate:0.))

let test_custody_claim () =
  (* the paper's §3.3 number: 10 GB cache behind 40 Gbps holds ~2 s *)
  let t =
    Sim.Units.holding_time ~cache_bits:(Sim.Units.gigabytes 10.)
      ~rate:(Sim.Units.gbps 40.)
  in
  check_float "10GB / 40Gbps = 2s" 2. t

let test_pp_formats () =
  let str pp v = Format.asprintf "%a" pp v in
  Alcotest.(check string) "rate" "2.5 Gbps" (str Sim.Units.pp_rate 2.5e9);
  Alcotest.(check string) "size" "10 GB" (str Sim.Units.pp_size (Sim.Units.gigabytes 10.));
  Alcotest.(check string) "time ms" "1.5 ms" (str Sim.Units.pp_time 1.5e-3);
  Alcotest.(check string) "time s" "2 s" (str Sim.Units.pp_time 2.);
  Alcotest.(check string) "time us" "12 us" (str Sim.Units.pp_time 12e-6);
  Alcotest.(check string) "time ns" "3 ns" (str Sim.Units.pp_time 3e-9);
  Alcotest.(check string) "time zero" "0 s" (str Sim.Units.pp_time 0.);
  Alcotest.(check string) "rate kbps" "900 kbps" (str Sim.Units.pp_rate 9e5)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Sim.Rng.create 42L and b = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same seed, same stream" (Sim.Rng.next_int64 a) (Sim.Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 1L and b = Sim.Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rng.next_int64 a = Sim.Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 2)

let test_rng_float_range () =
  let r = Sim.Rng.create 7L in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.float r 3.5 in
    if x < 0. || x >= 3.5 then Alcotest.fail "float out of range"
  done

let test_rng_int_range () =
  let r = Sim.Rng.create 7L in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.int r 10 in
    if x < 0 || x >= 10 then Alcotest.fail "int out of range";
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_rng_split_independent () =
  let parent = Sim.Rng.create 9L in
  let child = Sim.Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rng.next_int64 parent = Sim.Rng.next_int64 child then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 2)

(* The rng gate: [int] draws allocate nothing, a float draw at most
   its boxed result, and the first draws of a fixed seed are pinned, so
   a rewrite of the state or of the remainder keeps every stream.  The
   large bounds exercise the remainder's correction step. *)
let test_rng_draw_alloc () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let r = Sim.Rng.create 42L and n = 10_000 in
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
    per_draw "int" 0. (fun () -> Sim.Rng.int r 1000);
    per_draw "large int" 0. (fun () -> Sim.Rng.int r (max_int - 7));
    per_draw "float" 2. (fun () -> Sim.Rng.float r 3.5);
    per_draw "exponential" 2. (fun () -> Sim.Rng.exponential r ~mean:2.)

let test_rng_pinned_stream () =
  let r = Sim.Rng.create 1L in
  Alcotest.(check (list int)) "int draws"
    [ 401970; 666695; 847527; 673004; 883515 ]
    (List.init 5 (fun _ -> Sim.Rng.int r 1_000_000));
  Alcotest.(check (list int)) "int draws near max_int"
    [
      1766606535146567784;
      1489930772790519291;
      355630888729706692;
      43492338936245698;
      594537521105859000;
    ]
    (List.init 5 (fun b -> Sim.Rng.int r (max_int / (b + 1))));
  Alcotest.(check (list (float 0.))) "float draws"
    [ 0.51506059479431165; 0.53361440803412741; 0.92277321464439277 ]
    (List.init 3 (fun _ -> Sim.Rng.float r 1.));
  Alcotest.(check int64) "raw draw" 3723083104817009959L
    (Sim.Rng.next_int64 r)

let test_exponential_mean () =
  let r = Sim.Rng.create 11L in
  let acc = ref 0. in
  let n = 200_000 in
  for _ = 1 to n do
    acc := !acc +. Sim.Rng.exponential r ~mean:2.
  done;
  check_close "exponential mean ~2" 0.05 2. (!acc /. float_of_int n)

let test_pareto_support () =
  let r = Sim.Rng.create 13L in
  for _ = 1 to 10_000 do
    let x = Sim.Rng.pareto r ~shape:1.5 ~scale:4. in
    if x < 4. then Alcotest.fail "pareto below scale"
  done

let test_pareto_mean () =
  let r = Sim.Rng.create 17L in
  let acc = ref 0. in
  let n = 500_000 in
  for _ = 1 to n do
    acc := !acc +. Sim.Rng.pareto r ~shape:3. ~scale:2.
  done;
  (* mean = shape*scale/(shape-1) = 3 *)
  check_close "pareto mean ~3" 0.1 3. (!acc /. float_of_int n)

let test_zipf_bounds_and_skew () =
  let r = Sim.Rng.create 19L in
  let sampler = Sim.Rng.zipf_sampler ~n:100 ~s:1.0 in
  let counts = Array.make 101 0 in
  for _ = 1 to 50_000 do
    let k = sampler r in
    if k < 1 || k > 100 then Alcotest.fail "zipf out of range";
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 1 most popular" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 50" true (counts.(2) > counts.(50))

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_queue_order () =
  let q = Sim.Event_queue.create ~vacant:"" in
  ignore (Sim.Event_queue.push q ~time:3. "c");
  ignore (Sim.Event_queue.push q ~time:1. "a");
  ignore (Sim.Event_queue.push q ~time:2. "b");
  let popped = List.init 3 (fun _ -> Sim.Event_queue.pop q) in
  Alcotest.(check (list (option (pair (float 0.) string))))
    "time order"
    [ Some (1., "a"); Some (2., "b"); Some (3., "c") ]
    popped;
  Alcotest.(check bool) "drained" true (Sim.Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Sim.Event_queue.create ~vacant:(-1) in
  for i = 0 to 9 do
    ignore (Sim.Event_queue.push q ~time:5. i)
  done;
  for expect = 0 to 9 do
    match Sim.Event_queue.pop q with
    | Some (_, got) -> Alcotest.(check int) "FIFO among ties" expect got
    | None -> Alcotest.fail "queue drained early"
  done

let test_queue_cancel () =
  let q = Sim.Event_queue.create ~vacant:"" in
  let _a = Sim.Event_queue.push q ~time:1. "a" in
  let b = Sim.Event_queue.push q ~time:2. "b" in
  let _c = Sim.Event_queue.push q ~time:3. "c" in
  Sim.Event_queue.cancel b;
  Alcotest.(check bool) "cancelled flag" true (Sim.Event_queue.is_cancelled b);
  Alcotest.(check int) "size excludes cancelled" 2 (Sim.Event_queue.size q);
  let seq = List.init 2 (fun _ -> Option.map snd (Sim.Event_queue.pop q)) in
  Alcotest.(check (list (option string))) "skips cancelled"
    [ Some "a"; Some "c" ] seq

let test_queue_peek () =
  let q = Sim.Event_queue.create ~vacant:() in
  Alcotest.(check (option (float 0.))) "empty peek" None
    (Sim.Event_queue.peek_time q);
  let h = Sim.Event_queue.push q ~time:1. () in
  ignore (Sim.Event_queue.push q ~time:2. ());
  Sim.Event_queue.cancel h;
  Alcotest.(check (option (float 0.))) "peek skips cancelled" (Some 2.)
    (Sim.Event_queue.peek_time q)

(* [size] must stay exact under arbitrary push/cancel/pop
   interleavings — the pre-overhaul implementation recomputed the live
   count by scanning, and rewrote it as a side effect of the read *)
let test_queue_size_exact_random () =
  let r = Sim.Rng.create 7L in
  let q = Sim.Event_queue.create ~vacant:(-1) in
  let live = Hashtbl.create 64 in
  let next = ref 0 in
  let model = ref 0 in
  for _ = 1 to 2_000 do
    (match Sim.Rng.int r 4 with
    | 0 | 1 ->
      let h = Sim.Event_queue.push q ~time:(Sim.Rng.float r 100.) !next in
      Hashtbl.replace live !next h;
      incr next;
      incr model
    | 2 ->
      if Hashtbl.length live > 0 then begin
        let ks = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
        let k = List.nth ks (Sim.Rng.int r (List.length ks)) in
        Sim.Event_queue.cancel (Hashtbl.find live k);
        Hashtbl.remove live k;
        decr model
      end
    | _ -> (
      match Sim.Event_queue.pop q with
      | Some (_, k) ->
        Hashtbl.remove live k;
        decr model
      | None -> ()));
    if Sim.Event_queue.size q <> !model then
      Alcotest.failf "size drifted: %d <> model %d"
        (Sim.Event_queue.size q) !model;
    if Sim.Event_queue.is_empty q <> (!model = 0) then
      Alcotest.fail "is_empty inconsistent with size"
  done;
  let st = Sim.Event_queue.stats q in
  Alcotest.(check int) "scheduled counter" !next
    st.Sim.Event_queue.scheduled

(* cancelling is idempotent on the counters, and a mostly-dead heap is
   compacted on the next push *)
let test_queue_cancel_idempotent_compaction () =
  let q = Sim.Event_queue.create ~vacant:(-1) in
  let hs =
    Array.init 200 (fun i ->
        Sim.Event_queue.push q ~time:(float_of_int i) i)
  in
  Array.iter Sim.Event_queue.cancel hs;
  Array.iter Sim.Event_queue.cancel hs;
  Alcotest.(check int) "all cancelled" 0 (Sim.Event_queue.size q);
  let st = Sim.Event_queue.stats q in
  Alcotest.(check int) "cancel counted once" 200 st.Sim.Event_queue.cancelled;
  ignore (Sim.Event_queue.push q ~time:1000. (-1));
  let st = Sim.Event_queue.stats q in
  Alcotest.(check bool) "push over dead heap compacts" true
    (st.Sim.Event_queue.compacted >= 1);
  Alcotest.(check int) "live survives compaction" 1 (Sim.Event_queue.size q);
  (match Sim.Event_queue.pop q with
  | Some (t, v) ->
    Alcotest.(check (float 0.)) "survivor time" 1000. t;
    Alcotest.(check int) "survivor payload" (-1) v
  | None -> Alcotest.fail "survivor lost by compaction");
  Alcotest.(check bool) "drained" true (Sim.Event_queue.is_empty q)

let test_queue_nan_rejected () =
  let q = Sim.Event_queue.create ~vacant:() in
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Event_queue.push: NaN time") (fun () ->
      ignore (Sim.Event_queue.push q ~time:Float.nan ()))

let test_queue_large_random () =
  let r = Sim.Rng.create 101L in
  let q = Sim.Event_queue.create ~vacant:() in
  let times = Array.init 5_000 (fun _ -> Sim.Rng.float r 1000.) in
  Array.iter (fun t -> ignore (Sim.Event_queue.push q ~time:t ())) times;
  let last = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match Sim.Event_queue.pop q with
    | None -> ()
    | Some (t, ()) ->
      if t < !last then Alcotest.fail "out of order pop";
      last := t;
      incr count;
      drain ()
  in
  drain ();
  Alcotest.(check int) "all popped" 5_000 !count

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_clock_and_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~delay:2. (fun () -> log := "b" :: !log));
  ignore (Sim.Engine.schedule e ~delay:1. (fun () -> log := "a" :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "handler order" [ "a"; "b" ] (List.rev !log);
  check_float "clock at last event" 2. (Sim.Engine.now e)

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let fired = ref 0. in
  ignore
    (Sim.Engine.schedule e ~delay:1. (fun () ->
         ignore
           (Sim.Engine.schedule e ~delay:1.5 (fun () ->
                fired := Sim.Engine.now e))));
  Sim.Engine.run e;
  check_float "nested event at 2.5" 2.5 !fired

let test_engine_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Sim.Engine.run ~until:5.5 e;
  Alcotest.(check int) "only first five fire" 5 !count;
  check_float "clock parked at horizon" 5.5 (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "rest fire on resume" 10 !count

let test_engine_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:1. (fun () ->
      match Sim.Engine.schedule_at e ~time:0.5 (fun () -> ()) with
      | _ -> Alcotest.fail "scheduling into the past must raise"
      | exception Invalid_argument _ -> ()));
  Sim.Engine.run e

let test_engine_periodic () =
  let e = Sim.Engine.create () in
  let ticks = ref 0 in
  Sim.Engine.schedule_periodic e ~interval:1. (fun () ->
      incr ticks;
      !ticks < 4);
  Sim.Engine.run e;
  Alcotest.(check int) "stops when false" 4 !ticks;
  check_float "last tick time" 4. (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~delay:1. (fun () -> fired := true) in
  Sim.Engine.cancel h;
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled handler never fires" false !fired

let test_engine_step () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule e ~delay:1. (fun () -> incr fired));
  ignore (Sim.Engine.schedule e ~delay:2. (fun () -> incr fired));
  Alcotest.(check int) "pending" 2 (Sim.Engine.pending e);
  Alcotest.(check bool) "step one" true (Sim.Engine.step e);
  Alcotest.(check int) "one fired" 1 !fired;
  Alcotest.(check bool) "step two" true (Sim.Engine.step e);
  Alcotest.(check bool) "drained" false (Sim.Engine.step e);
  Alcotest.(check int) "handled" 2 (Sim.Engine.events_handled e)

let test_engine_max_events () =
  let e = Sim.Engine.create () in
  let rec forever () = ignore (Sim.Engine.schedule e ~delay:1. forever) in
  forever ();
  Sim.Engine.run ~max_events:100 e;
  Alcotest.(check int) "bounded" 100 (Sim.Engine.events_handled e)

(* Engine churn allocation gate: 64 self-rescheduling timers, each tick
   also replacing a far-future event, so the heap carries a cancelled
   entry per timer.  Minor words per event are bit-deterministic at
   fixed inputs; the figure is frozen with 1.25x headroom. *)
let test_engine_churn_alloc () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let before = Gc.minor_words () in
    let e = Sim.Engine.create () in
    let remaining = ref 20_000 and noop () = () in
    let doomed = Array.make 64 None in
    for i = 0 to 63 do
      let delay = 1e-3 +. (float_of_int i *. 1e-6) in
      let rec tick () =
        if !remaining > 0 then begin
          decr remaining;
          Option.iter Sim.Engine.cancel doomed.(i);
          doomed.(i) <- Some (Sim.Engine.schedule e ~delay:1e6 noop);
          ignore (Sim.Engine.schedule e ~delay tick)
        end
      in
      ignore (Sim.Engine.schedule e ~delay:(float_of_int (i + 1) *. 1e-5) tick)
    done;
    Sim.Engine.run ~until:1e5 e;
    let events = Sim.Engine.events_handled e in
    let per_event = (Gc.minor_words () -. before) /. float_of_int events in
    Alcotest.(check int) "events" 20_064 events;
    let frozen = 22.1 in
    if per_event > 1.25 *. frozen then
      Alcotest.failf "%g minor words/event, frozen %g, bound %g"
        per_event frozen (1.25 *. frozen)

(* ------------------------------------------------------------------ *)
(* Event order: the four-key queue against a model that pops the least
   key tuple, and engine lanes against the same events pushed one by
   one *)

type queue_op =
  | Push of int * int               (* time, epoch grid steps *)
  | Push_held of int * int * int    (* … and a stamp *)
  | Cancel of int                   (* even: a live handle; odd: a spent one *)
  | Pop

let show_queue_op = function
  | Push (t, e) -> Printf.sprintf "push(%d,%d)" t e
  | Push_held (t, e, s) -> Printf.sprintf "held(%d,%d,s%d)" t e s
  | Cancel k -> Printf.sprintf "cancel %d" k
  | Pop -> "pop"

(* coarse grids (6 times, 3 epochs, 4 stamps) so every tie level is
   hit; a push-heavy phase then a cancel-heavy one, so most runs pass
   the compaction threshold (64 entries, over half dead) *)
let queue_ops =
  let open QCheck.Gen in
  let key = pair (int_bound 5) (int_bound 2) in
  let phase ~push ~held ~cancel ~pop n =
    list_size n
      (frequency
         [
           (push, map (fun (t, e) -> Push (t, e)) key);
           (held, map2 (fun (t, e) s -> Push_held (t, e, s)) key (int_bound 3));
           (cancel, map (fun k -> Cancel k) (int_bound 1_000));
           (pop, return Pop);
         ])
  in
  map2 ( @ )
    (phase ~push:7 ~held:2 ~cancel:1 ~pop:1 (int_range 120 250))
    (phase ~push:1 ~held:1 ~cancel:8 ~pop:1 (int_range 150 300))

(* A pop leaves the root vacant until the next push fills it or the
   next read of the top closes it.  This script reaches each case from
   an empty queue; equal keys order by seq, so the heap array starts
   sorted in push order and its last entry is the newest push. *)
let hole_script =
  let fill n = List.init n (fun _ -> Push (0, 0)) in
  (* cancel the entry that would close the hole, alone and in a full
     heap *)
  fill 2 @ [ Pop; Cancel 0; Pop ]
  @ fill 70 @ [ Pop; Cancel 0; Pop ]
  (* a push straight after a pop fills the hole; a pop after a pop
     closes it *)
  @ [ Pop; Push (0, 0); Pop; Pop ]
  (* cancel the 40 newest (largest) keys: over half the heap is dead,
     so the push after the next pop compacts with the hole pending *)
  @ List.init 40 (fun _ -> Cancel 0)
  @ [ Pop; Push (0, 0); Pop ]

(* Run [ops] through a queue and the model, checking [size] and
   [is_empty] after every op, and [peek_time] too when [peek] is set.
   A peek closes a pending hole, so only the unpeeked run fills holes
   with pushes.  Returns how many pushes straight after a pop
   compacted the heap. *)
let run_queue_model ~peek ops =
  let module Q = Sim.Event_queue in
  let q = Q.create ~vacant:(-1) in
  let grid i = float_of_int i *. 0.25 and keys = Array.make 2 0. in
  (* live entries as ((time, epoch, stamp, seq), seq); the payload is
     the seq *)
  let model = ref [] and live = ref [] and spent = ref [] in
  let seq = ref 0 and after_pop = ref false and hole_compactions = ref 0 in
  let add key = model := (key, !seq) :: !model; incr seq in
  let forget id =
    model := List.filter (fun (_, i) -> i <> id) !model;
    match List.assoc_opt id !live with
    | Some h ->
      live := List.remove_assoc id !live;
      spent := h :: !spent
    | None -> ()
  in
  let check_state () =
    let n = List.length !model in
    if Q.size q <> n then
      QCheck.Test.fail_reportf "size %d, model %d" (Q.size q) n;
    if Q.is_empty q <> (n = 0) then
      QCheck.Test.fail_report "is_empty disagrees with the model";
    if peek then begin
      let min_time =
        List.fold_left
          (fun acc ((t, _, _, _), _) ->
            Some (match acc with Some m -> Float.min m t | None -> t))
          None !model
      in
      if Q.peek_time q <> min_time then
        QCheck.Test.fail_report "peek_time disagrees with the model"
    end
  in
  let pushed f =
    let before = (Q.stats q).Q.compacted in
    f ();
    if !after_pop && (Q.stats q).Q.compacted > before then
      incr hole_compactions
  in
  List.iter
    (fun op ->
      let popped =
        match op with
        | Push (t, e) ->
          pushed (fun () ->
              let h = Q.push q ~epoch:(grid e) ~time:(grid t) !seq in
              live := (!seq, h) :: !live;
              add (grid t, grid e, !seq, !seq));
          false
        | Push_held (t, e, s) ->
          pushed (fun () ->
              let sq = Q.take_seq q in
              keys.(0) <- grid t;
              keys.(1) <- grid e;
              Q.push_held q keys 0 ~stamp:s ~seq:sq !seq;
              add (grid t, grid e, s, sq));
          false
        | Cancel k when k mod 2 = 0 -> (
          match !live with
          | [] -> false
          | hs ->
            let id, h = List.nth hs (k / 2 mod List.length hs) in
            Q.cancel h;
            forget id;
            false)
        | Cancel k -> (
          (* cancelling a popped or cancelled handle changes nothing *)
          match !spent with
          | [] -> false
          | hs ->
            Q.cancel (List.nth hs (k / 2 mod List.length hs));
            false)
        | Pop -> (
          let expected =
            List.fold_left
              (fun acc (key, id) ->
                match acc with
                | Some (k, _) when compare k key <= 0 -> acc
                | _ -> Some (key, id))
              None !model
          in
          match (Q.pop q, expected) with
          | None, None -> false
          | Some (t, id), Some ((et, _, _, _), eid) ->
            if id <> eid || t <> et then
              QCheck.Test.fail_reportf "popped %d at %g, model %d at %g" id t
                eid et;
            forget id;
            true
          | Some _, None -> QCheck.Test.fail_report "popped from an empty model"
          | None, Some _ -> QCheck.Test.fail_report "empty, model is not")
      in
      (* a cancel leaves a pending hole pending *)
      (match op with
      | Cancel _ -> ()
      | _ -> after_pop := popped && not peek);
      check_state ())
    ops;
  !hole_compactions

let prop_queue_model =
  QCheck.Test.make ~name:"four-key order matches a model" ~count:200
    (QCheck.make ~print:(QCheck.Print.list show_queue_op) queue_ops)
    (fun ops ->
      let ops = hole_script @ ops in
      ignore (run_queue_model ~peek:true ops);
      if run_queue_model ~peek:false ops = 0 then
        QCheck.Test.fail_report "no push after a pop compacted the heap";
      true)

(* A random scenario run twice: through an engine whose lane events
   sit in lanes, and through a plain queue where every lane event is
   pushed on its own with the same keys, the same stamp and (being
   pushed at the same moment) the same seq.  Timers, periodic ticks
   and lane events share one 0.25 s grid of times and epochs, so ties
   cross lanes and timers at every level.  The lanes share one page
   pool, and a reaction may push a burst of 70 items, several pages
   long, onto one lane while the others drain, so pages change hands
   between lanes.  Each handled event logs (source, item, time, pending). *)
type scheduler = {
  now : unit -> float;
  stamp : unit -> int;
  pending : unit -> int;
  lane_push : int -> float array -> stamp:int -> int -> unit;
  after : float -> (unit -> unit) -> unit;
  every : float -> (unit -> bool) -> unit;
}

let lanes = 3

(* returns the lane handler, which the scheduler calls per lane event *)
let lane_scenario ~seed d ~log =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let g = 0.25 in
  let step () = g *. float_of_int (Sim.Rng.int rng 3) in
  let last = Array.make lanes neg_infinity and chain = Array.make lanes 0 in
  let budget = ref 300 and item = ref 0 and timer = ref 0 in
  (* one key array for every push: the lane copies the cells *)
  let keys = Array.make 2 0. in
  let push_lane l =
    let now = d.now () in
    let time = Float.max (now +. step ()) (last.(l) +. g) in
    last.(l) <- time;
    let epoch = time -. step () in
    if Sim.Rng.int rng 4 = 0 then chain.(l) <- d.stamp ();
    let stamp =
      if Int64.logand (Sim.Rng.next_int64 rng) 1L = 1L then chain.(l)
      else d.stamp ()
    in
    incr item;
    keys.(0) <- time;
    keys.(1) <- epoch;
    d.lane_push l keys ~stamp !item
  in
  let record src id = log := (src, id, d.now (), d.pending ()) :: !log in
  let rec react () =
    if !budget > 0 then begin
      decr budget;
      match Sim.Rng.int rng 6 with
      | 0 | 1 | 2 -> push_lane (Sim.Rng.int rng lanes)
      | 3 -> push_lane (Sim.Rng.int rng lanes); push_lane (Sim.Rng.int rng lanes)
      | 4 ->
        incr timer;
        let id = !timer in
        d.after (step ()) (fun () -> record (-1) id; react ())
      | _ ->
        if Sim.Rng.int rng 4 = 0 then begin
          let l = Sim.Rng.int rng lanes in
          for _ = 1 to 70 do push_lane l done
        end
    end
  in
  for _ = 1 to 6 do push_lane (Sim.Rng.int rng lanes) done;
  List.iter
    (fun (id, interval) ->
      let ticks = ref 20 in
      d.every interval (fun () ->
          record (-2) id;
          react ();
          decr ticks;
          !ticks > 0))
    [ (1, g); (2, 2. *. g) ];
  d.after 0. (fun () -> record (-1) 0; react ());
  fun l i -> record l i; react ()

let run_with_lanes ~seed =
  let e = Sim.Engine.create () and log = ref [] in
  let handler = ref (fun _ _ -> ()) in
  let pool = Sim.Engine.pool ~filler:0 in
  let ls =
    Array.init lanes (fun l -> Sim.Engine.lane pool e (fun i -> !handler l i))
  in
  let d =
    {
      now = (fun () -> Sim.Engine.now e);
      stamp = (fun () -> Sim.Engine.stamp e);
      pending = (fun () -> Sim.Engine.pending e);
      lane_push = (fun l -> Sim.Engine.lane_push ls.(l));
      after = (fun delay f -> ignore (Sim.Engine.schedule e ~delay f));
      every = (fun interval f -> Sim.Engine.schedule_periodic e ~interval f);
    }
  in
  handler := lane_scenario ~seed d ~log;
  Sim.Engine.run e;
  List.rev !log

(* the reference: the engine's scheduling rules over one plain queue *)
let run_plain ~seed =
  let q = Sim.Event_queue.create ~vacant:ignore and log = ref [] in
  let now = ref 0. in
  let after delay f =
    ignore (Sim.Event_queue.push q ~epoch:!now ~time:(!now +. delay) f)
  in
  let handler = ref (fun _ _ -> ()) in
  let d =
    {
      now = (fun () -> !now);
      stamp = (fun () -> Sim.Event_queue.next_stamp q);
      pending = (fun () -> Sim.Event_queue.size q);
      lane_push =
        (fun l keys ~stamp i ->
          let seq = Sim.Event_queue.take_seq q in
          Sim.Event_queue.push_held q keys 0 ~stamp ~seq (fun () ->
              !handler l i));
      after;
      every =
        (fun interval f ->
          let rec tick () = if f () then after interval tick in
          after interval tick);
    }
  in
  handler := lane_scenario ~seed d ~log;
  let rec loop () =
    match Sim.Event_queue.pop q with
    | Some (t, f) ->
      now := t;
      f ();
      loop ()
    | None -> ()
  in
  loop ();
  List.rev !log

(* fail with the first event at which two run logs differ *)
let same_log a b =
  if a <> b then begin
    let rec first i = function
      | x :: xs, y :: ys when x = y -> first (i + 1) (xs, ys)
      | _ -> i
    in
    QCheck.Test.fail_reportf "diverge at event %d of %d/%d" (first 0 (a, b))
      (List.length a) (List.length b)
  end

let prop_lanes_equal_plain =
  QCheck.Test.make ~name:"lanes pop as plain pushes would" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let a = run_with_lanes ~seed and b = run_plain ~seed in
      same_log a b;
      List.length a > 300)

let test_lane_contract () =
  let e = Sim.Engine.create () and got = ref [] in
  let l =
    Sim.Engine.lane (Sim.Engine.pool ~filler:0) e (fun i ->
        got := (i, Sim.Engine.now e) :: !got)
  in
  let keys = Array.make 2 0. in
  let push ?(epoch = 0.) time i =
    keys.(0) <- time;
    keys.(1) <- epoch;
    Sim.Engine.lane_push l keys ~stamp:(Sim.Engine.stamp e) i;
    (* the caller owns the cells: scribbling on them moves nothing *)
    Array.fill keys 0 2 Float.nan
  in
  push 1. 1;
  push 2. 2;
  push 3. 3;
  ignore (Sim.Engine.schedule e ~delay:5. ignore);
  Alcotest.(check int) "lane length" 3 (Sim.Engine.lane_length l);
  Alcotest.(check int) "pending counts lane-held events" 4
    (Sim.Engine.pending e);
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "equal time" (fun () -> push 3. 9);
  rejects "earlier time" (fun () -> push 2.5 9);
  rejects "NaN time" (fun () -> push Float.nan 9);
  rejects "epoch after time" (fun () -> push ~epoch:5. 4. 9);
  Alcotest.(check int) "rejected pushes leave no trace" 4 (Sim.Engine.pending e);
  Alcotest.(check bool) "step" true (Sim.Engine.step e);
  Alcotest.(check int) "pending after one" 3 (Sim.Engine.pending e);
  rejects "time before now" (fun () -> push 0.5 9);
  Sim.Engine.run e;
  Alcotest.(check (list (pair int (float 0.)))) "FIFO at their times"
    [ (1, 1.); (2, 2.); (3, 3.) ] (List.rev !got);
  Alcotest.(check int) "drained" 0 (Sim.Engine.pending e);
  Alcotest.(check int) "lane empty" 0 (Sim.Engine.lane_length l);
  (* An equal-time push is refused after every push, page boundaries
     included: when the next push would start a page, the last key sits
     on the page before it.  100 pushes cross several pages. *)
  let t0 = Sim.Engine.now e in
  for i = 1 to 100 do
    let time = t0 +. float_of_int i in
    push time i;
    rejects (Printf.sprintf "equal time after push %d" i) (fun () ->
        push time 9)
  done;
  Alcotest.(check int) "refusals leave no trace" 100 (Sim.Engine.lane_length l);
  Sim.Engine.run e;
  Alcotest.(check int) "all ran" 103 (List.length !got)

(* Timers against [schedule]: one random program run twice, once with
   three timers, three lanes and cancellable one-shots, once with every
   timer arm and lane push written as a [schedule].  A lane push takes
   the keys a [schedule] would (epoch [now], the current stamp), so the
   two runs must pop the same events at the same times.  Delays lie on
   a 0.25 s grid, so same-instant ties mix all three kinds, and a timer
   is often armed again before it fires. *)
type timer_program = {
  arm : int -> float -> unit;                 (* timer, delay *)
  lane_at : int -> float -> int -> unit;      (* lane, time, item *)
  after : float -> (unit -> unit) -> Sim.Event_queue.handle;
}

let timer_scenario ~seed e p ~log =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let g = 0.25 in
  let step () = g *. float_of_int (Sim.Rng.int rng 3) in
  let last = Array.make lanes neg_infinity in
  let live = ref [] and budget = ref 800 and item = ref 0 in
  let record src id =
    log := (src, id, Sim.Engine.now e, Sim.Engine.pending e) :: !log
  in
  let rec react () =
    if !budget > 0 then begin
      decr budget;
      match Sim.Rng.int rng 7 with
      | 0 | 1 -> p.arm (Sim.Rng.int rng 3) (step ())
      | 2 | 3 ->
        let l = Sim.Rng.int rng lanes in
        let time = Float.max (Sim.Engine.now e +. step ()) (last.(l) +. g) in
        last.(l) <- time;
        incr item;
        p.lane_at l time !item
      | 4 ->
        incr item;
        let id = !item in
        live := p.after (step ()) (fun () -> record (-1) id; react ()) :: !live
      | 5 -> (
        match !live with
        | [] -> ()
        | hs -> Sim.Engine.cancel (List.nth hs (Sim.Rng.int rng (List.length hs))))
      | _ -> react (); react ()
    end
  in
  (* each timer or lane event reacts twice, so the program grows until
     its budget runs out.  A reaction may cancel or schedule nothing, so
     each timer also re-arms itself while budget remains: the program
     cannot die out early whatever the seed. *)
  (fun k ->
    record (-2) k;
    if !budget > 0 then p.arm k (step ());
    react ();
    react ()),
  (fun l i -> record l i; react (); react ()),
  fun () ->
    for k = 0 to 2 do p.arm k (step ()) done;
    for _ = 1 to 6 do react () done

let run_timers ~seed ~plain =
  let e = Sim.Engine.create () and log = ref [] in
  let on_timer = ref ignore and on_lane = ref (fun _ _ -> ()) in
  let timers = Array.init 3 (fun k -> Sim.Engine.timer e (fun () -> !on_timer k)) in
  let pool = Sim.Engine.pool ~filler:0 in
  let ls =
    Array.init lanes (fun l -> Sim.Engine.lane pool e (fun i -> !on_lane l i))
  in
  let keys = Array.make 2 0. in
  let after delay f = Sim.Engine.schedule e ~delay f in
  let p =
    if plain then
      {
        arm = (fun k delay -> ignore (after delay (fun () -> !on_timer k)));
        lane_at =
          (fun l time i ->
            ignore (after (time -. Sim.Engine.now e) (fun () -> !on_lane l i)));
        after;
      }
    else
      {
        arm = (fun k delay -> Sim.Engine.arm timers.(k) ~delay);
        lane_at =
          (fun l time i ->
            keys.(0) <- time;
            keys.(1) <- Sim.Engine.now e;
            Sim.Engine.lane_push ls.(l) keys ~stamp:(Sim.Engine.stamp e) i);
        after;
      }
  in
  let timer_h, lane_h, start = timer_scenario ~seed e p ~log in
  on_timer := timer_h;
  on_lane := lane_h;
  start ();
  Sim.Engine.run e;
  List.rev !log

let prop_timers_equal_schedule =
  QCheck.Test.make ~name:"timers pop as schedules would" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let a = run_timers ~seed ~plain:false and b = run_timers ~seed ~plain:true in
      same_log a b;
      if not (List.exists (fun (src, _, _, _) -> src = -2) a && List.length a > 300)
      then QCheck.Test.fail_reportf "only %d events" (List.length a);
      true)

let test_timer_contract () =
  let e = Sim.Engine.create () and got = ref [] in
  let tm = Sim.Engine.timer e (fun () -> got := Sim.Engine.now e :: !got) in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun delay ->
      let what = Printf.sprintf "delay %g" delay in
      rejects ("schedule " ^ what) (fun () ->
          ignore (Sim.Engine.schedule e ~delay ignore));
      rejects ("arm " ^ what) (fun () -> Sim.Engine.arm tm ~delay))
    [ Float.nan; -1.; -0.5e-9; Float.neg_infinity ];
  Alcotest.(check int) "rejected arms leave no trace" 0 (Sim.Engine.pending e);
  Sim.Engine.arm tm ~delay:2.;
  Sim.Engine.arm tm ~delay:1.;
  Sim.Engine.arm tm ~delay:1.;
  Alcotest.(check int) "each arm pending" 3 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check (list (float 0.))) "armed thrice, fired thrice"
    [ 1.; 1.; 2. ] (List.rev !got);
  Alcotest.(check int) "one event per arm" 3 (Sim.Engine.events_handled e)

(* ------------------------------------------------------------------ *)
(* Retention: a lane overwrites each slot it pops, so it keeps no item
   it handed over alive, whatever the item's representation.  Seventy
   items span several pages: the full ones go back to the pool, and the
   drained lane keeps its tail page. *)

let test_lane_lets_go () =
  let e = Sim.Engine.create () and handled = ref 0 in
  let l =
    Sim.Engine.lane (Sim.Engine.pool ~filler:(ref 0)) e (fun r ->
        handled := !handled + !r)
  in
  let n = 70 in
  let w = Weak.create n and keys = Array.make 2 0. in
  (* built in a frame of their own, so no stack slot of the test holds
     them *)
  let[@inline never] push_all () =
    for i = 0 to n - 1 do
      let r = ref (i + 1) in
      Weak.set w i (Some r);
      keys.(0) <- float_of_int (i + 1);
      Sim.Engine.lane_push l keys ~stamp:(Sim.Engine.stamp e) r
    done
  in
  push_all ();
  Sim.Engine.run e;
  Alcotest.(check int) "handled" (n * (n + 1) / 2) !handled;
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "item %d collected" i) false
      (Weak.check w i)
  done;
  (* the lane outlives the check *)
  Alcotest.(check int) "lane drained" 0 (Sim.Engine.lane_length l)

(* A fired or cancelled one-shot event keeps nothing it captured
   alive: the queue overwrites its slot when it pops the event or drops
   its cancelled entry.  The arrays are built and captured in a frame
   of their own, so no stack slot of the test holds them. *)
let test_schedule_lets_go () =
  let e = Sim.Engine.create () and sum = ref 0 in
  let w = Weak.create 2 in
  let[@inline never] schedule_two () =
    let fired = Array.make 100 1 and cancelled = Array.make 100 2 in
    Weak.set w 0 (Some fired);
    Weak.set w 1 (Some cancelled);
    ignore
      (Sim.Engine.schedule e ~delay:1. (fun () ->
           sum := Array.fold_left ( + ) 0 fired));
    Sim.Engine.cancel
      (Sim.Engine.schedule e ~delay:2. (fun () ->
           sum := Array.fold_left ( + ) 0 cancelled))
  in
  schedule_two ();
  Sim.Engine.run e;
  Alcotest.(check int) "fired" 100 !sum;
  Gc.full_major ();
  Alcotest.(check bool) "fired closure's array collected" false
    (Weak.check w 0);
  Alcotest.(check bool) "cancelled closure's array collected" false
    (Weak.check w 1);
  (* the engine outlives the check *)
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending e)

let test_float_lane () =
  let e = Sim.Engine.create () and got = ref [] in
  let l = Sim.Engine.lane (Sim.Engine.pool ~filler:0.) e (fun x -> got := x :: !got) in
  let keys = Array.make 2 0. in
  (* past two page boundaries, popping as it goes *)
  for i = 1 to 80 do
    keys.(0) <- float_of_int i;
    Sim.Engine.lane_push l keys ~stamp:(Sim.Engine.stamp e) (float_of_int i *. 0.5);
    if i mod 3 = 0 then ignore (Sim.Engine.step e)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list (float 0.))) "pops what was pushed, in order"
    (List.init 80 (fun i -> float_of_int (i + 1) *. 0.5))
    (List.rev !got)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_running_moments () =
  let s = Sim.Stats.Running.create () in
  List.iter (Sim.Stats.Running.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Sim.Stats.Running.count s);
  check_float "mean" 5. (Sim.Stats.Running.mean s);
  check_float "min" 2. (Sim.Stats.Running.min s);
  check_float "max" 9. (Sim.Stats.Running.max s);
  check_float "sum" 40. (Sim.Stats.Running.sum s)

let test_samples_percentiles () =
  let s = Sim.Stats.Samples.create () in
  for i = 1 to 100 do
    Sim.Stats.Samples.add s (float_of_int i)
  done;
  check_float "p0 = min" 1. (Sim.Stats.Samples.percentile s 0.);
  check_float "p100 = max" 100. (Sim.Stats.Samples.percentile s 100.);
  check_float "median" 50.5 (Sim.Stats.Samples.percentile s 50.);
  check_close "p90" 0.5 90. (Sim.Stats.Samples.percentile s 90.)

let test_samples_cdf () =
  let s = Sim.Stats.Samples.create () in
  List.iter (Sim.Stats.Samples.add s) [ 1.; 2.; 3.; 4. ];
  check_float "cdf below" 0. (Sim.Stats.Samples.cdf_at s 0.5);
  check_float "cdf mid" 0.5 (Sim.Stats.Samples.cdf_at s 2.);
  check_float "cdf above" 1. (Sim.Stats.Samples.cdf_at s 10.);
  let curve = Sim.Stats.Samples.cdf ~points:4 s in
  Alcotest.(check int) "curve points" 4 (List.length curve);
  let last_p = snd (List.nth curve 3) in
  check_float "curve ends at 1" 1. last_p

let test_histogram () =
  let h = Sim.Stats.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Sim.Stats.Histogram.add h) [ 1.; 3.; 5.; 7.; 9.; -1.; 11. ];
  let counts = Sim.Stats.Histogram.counts h in
  Alcotest.(check int) "total" 7 (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "clamped low" 2 counts.(0);
  Alcotest.(check int) "clamped high" 2 counts.(4);
  Alcotest.(check int) "edges" 6 (Array.length (Sim.Stats.Histogram.bin_edges h))

(* ------------------------------------------------------------------ *)
(* Timeline *)

let test_timeline_average () =
  let tl = Sim.Timeline.create ~start:0. in
  Sim.Timeline.record tl ~time:2. 10.;   (* 0 over [0,2) *)
  Sim.Timeline.record tl ~time:4. 0.;    (* 10 over [2,4) *)
  check_float "integral" 20. (Sim.Timeline.integral tl ~until:6.);
  check_close "time average" 1e-9 (20. /. 6.)
    (Sim.Timeline.time_average tl ~until:6.)

let test_timeline_initial () =
  let tl = Sim.Timeline.create ~start:1. in
  Sim.Timeline.record tl ~time:1. 5.;
  check_float "avg of constant" 5. (Sim.Timeline.time_average tl ~until:3.)

let test_timeline_backwards_rejected () =
  let tl = Sim.Timeline.create ~start:0. in
  Sim.Timeline.record tl ~time:2. 1.;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeline.record: time 1 < last 2") (fun () ->
      Sim.Timeline.record tl ~time:1. 2.)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
              (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (xs <> []);
      let s = Sim.Stats.Samples.create () in
      List.iter (Sim.Stats.Samples.add s) xs;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Sim.Stats.Samples.percentile s lo <= Sim.Stats.Samples.percentile s hi)

let prop_running_mean_bounded =
  QCheck.Test.make ~name:"running mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Sim.Stats.Running.create () in
      List.iter (Sim.Stats.Running.add s) xs;
      let m = Sim.Stats.Running.mean s in
      m >= Sim.Stats.Running.min s -. 1e-6
      && m <= Sim.Stats.Running.max s +. 1e-6)

let prop_timeline_integral_additive =
  QCheck.Test.make ~name:"timeline integral is additive over records" ~count:200
    QCheck.(list (pair (float_bound_inclusive 10.) (float_bound_inclusive 100.)))
    (fun steps ->
      let tl = Sim.Timeline.create ~start:0. in
      let time = ref 0. in
      let manual = ref 0. in
      let last_v = ref 0. in
      List.iter
        (fun (dt, v) ->
          manual := !manual +. (!last_v *. dt);
          time := !time +. dt;
          Sim.Timeline.record tl ~time:!time v;
          last_v := v)
        steps;
      let horizon = !time +. 1. in
      let expected = !manual +. !last_v in
      Float.abs (Sim.Timeline.integral tl ~until:horizon -. expected)
      < 1e-6 *. (1. +. Float.abs expected))

let prop_exponential_positive =
  QCheck.Test.make ~name:"exponential draws are positive" ~count:200
    QCheck.(pair int64 (float_range 0.001 100.))
    (fun (seed, mean) ->
      let r = Sim.Rng.create seed in
      Sim.Rng.exponential r ~mean > 0.)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "units",
        [
          Alcotest.test_case "sizes" `Quick test_units_sizes;
          Alcotest.test_case "rates" `Quick test_units_rates;
          Alcotest.test_case "transmission time" `Quick test_transmission_time;
          Alcotest.test_case "paper custody claim" `Quick test_custody_claim;
          Alcotest.test_case "pretty printers" `Quick test_pp_formats;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "pareto support" `Quick test_pareto_support;
          Alcotest.test_case "pareto mean" `Slow test_pareto_mean;
          Alcotest.test_case "zipf bounds and skew" `Quick test_zipf_bounds_and_skew;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "time order" `Quick test_queue_order;
          Alcotest.test_case "FIFO ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_queue_cancel;
          Alcotest.test_case "peek" `Quick test_queue_peek;
          Alcotest.test_case "NaN rejected" `Quick test_queue_nan_rejected;
          Alcotest.test_case "large random load" `Quick test_queue_large_random;
          Alcotest.test_case "size exact under interleavings" `Quick
            test_queue_size_exact_random;
          Alcotest.test_case "cancel idempotent, compaction" `Quick
            test_queue_cancel_idempotent_compaction;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clock and order" `Quick test_engine_clock_and_order;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "periodic" `Quick test_engine_periodic;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "max events guard" `Quick test_engine_max_events;
          Alcotest.test_case "step" `Quick test_engine_step;
        ] );
      ( "alloc gate",
        [ Alcotest.test_case "engine churn" `Quick test_engine_churn_alloc ] );
      ( "rng gate",
        [
          Alcotest.test_case "draw allocation" `Quick test_rng_draw_alloc;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
        ] );
      ( "event order",
        qc [ prop_queue_model; prop_lanes_equal_plain; prop_timers_equal_schedule ]
        @ [
            Alcotest.test_case "lane contract" `Quick test_lane_contract;
            Alcotest.test_case "timer contract" `Quick test_timer_contract;
          ] );
      ( "retention",
        [
          Alcotest.test_case "lane lets go of handled items" `Quick
            test_lane_lets_go;
          Alcotest.test_case "float lane" `Quick test_float_lane;
          Alcotest.test_case "fired schedule lets go" `Quick
            test_schedule_lets_go;
        ] );
      ( "stats",
        [
          Alcotest.test_case "running moments" `Quick test_running_moments;
          Alcotest.test_case "percentiles" `Quick test_samples_percentiles;
          Alcotest.test_case "cdf" `Quick test_samples_cdf;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "time average" `Quick test_timeline_average;
          Alcotest.test_case "initial value" `Quick test_timeline_initial;
          Alcotest.test_case "backwards rejected" `Quick test_timeline_backwards_rejected;
        ] );
      ( "properties",
        qc
          [
            prop_percentile_monotone;
            prop_running_mean_bounded;
            prop_exponential_positive;
            prop_timeline_integral_additive;
          ] );
    ]
