(* Tests for the chunk-level network substrate: packets, queues,
   caches, interfaces, network assembly and tracing. *)

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

module P = Chunksim.Packet

(* ------------------------------------------------------------------ *)
(* Packet *)

let test_packet_request () =
  let p = P.request ~flow:3 ~nc:5 ~ack:4 ~ac:13 in
  Alcotest.(check int) "flow" 3 (P.flow p);
  Alcotest.(check bool) "not data" false (P.is_data p);
  check_close "size" 0. 400. p.P.size;
  Alcotest.check_raises "ac < nc" (Invalid_argument "Packet.request: ac < nc")
    (fun () -> ignore (P.request ~flow:0 ~nc:5 ~ack:0 ~ac:4))

let test_packet_data () =
  let p = P.data ~flow:1 ~idx:7 ~born:0.5 80_000. in
  Alcotest.(check bool) "is data" true (P.is_data p);
  check_close "size" 0. 80_000. p.P.size;
  (match p.P.header with
  | P.Data { anticipated; via_detour; detour_route; _ } ->
    Alcotest.(check bool) "defaults" false (anticipated || via_detour);
    Alcotest.(check (list int)) "no route" [] detour_route
  | _ -> Alcotest.fail "wrong header");
  Alcotest.check_raises "bad size" (Invalid_argument "Packet.data: chunk_bits <= 0")
    (fun () -> ignore (P.data ~flow:0 ~idx:0 ~born:0. 0.))

let test_packet_pp () =
  let str p = Format.asprintf "%a" P.pp p in
  Alcotest.(check string) "req" "req[f1 nc=2 ack=1 ac=5]"
    (str (P.request ~flow:1 ~nc:2 ~ack:1 ~ac:5));
  Alcotest.(check string) "bp" "bp[f2 engage]"
    (str (P.backpressure ~flow:2 ~engage:true))

(* ------------------------------------------------------------------ *)
(* Fifo *)

let test_fifo_order_and_bounds () =
  let q = Chunksim.Fifo.create ~capacity:1000. in
  let mk i = P.data ~flow:0 ~idx:i ~born:0. 400. in
  Alcotest.(check bool) "first fits" true (Chunksim.Fifo.push q (mk 0) = `Queued);
  Alcotest.(check bool) "second fits" true (Chunksim.Fifo.push q (mk 1) = `Queued);
  Alcotest.(check bool) "third dropped" true (Chunksim.Fifo.push q (mk 2) = `Dropped);
  Alcotest.(check int) "drop counter" 1 (Chunksim.Fifo.total_dropped q);
  check_close "occupancy" 0. 800. (Chunksim.Fifo.occupancy q);
  (match (Chunksim.Fifo.take q).P.header with
  | P.Data { idx; _ } -> Alcotest.(check int) "FIFO order" 0 idx
  | _ -> Alcotest.fail "wrong kind");
  check_close "occupancy after take" 0. 400. (Chunksim.Fifo.occupancy q)

let rejects what f =
  match f () with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Invalid_argument _ -> ()

let test_fifo_empty () =
  let q = Chunksim.Fifo.create ~capacity:10. in
  Alcotest.(check bool) "empty" true (Chunksim.Fifo.is_empty q);
  rejects "take on a new queue" (fun () -> Chunksim.Fifo.take q);
  ignore (Chunksim.Fifo.push q (P.data ~flow:0 ~idx:0 ~born:0. 4.));
  Alcotest.(check bool) "not empty" false (Chunksim.Fifo.is_empty q);
  ignore (Chunksim.Fifo.take q);
  Alcotest.(check bool) "empty again" true (Chunksim.Fifo.is_empty q);
  rejects "take on a drained queue" (fun () -> Chunksim.Fifo.take q)

(* The ring against a list model, every counter checked after each
   step.  The script wraps the ring (head past its start, tail behind
   it), grows it while wrapped, overflows the byte bound, then drains
   it. *)
let test_fifo_ring () =
  let module F = Chunksim.Fifo in
  let size i = float_of_int (100 + (10 * (i mod 7))) in
  let q = F.create ~capacity:2_500. in
  let model = Queue.create () and next = ref 0 in
  let queued = ref 0 and dropped = ref 0 and dropped_bits = ref 0. in
  let bits () = Queue.fold (fun acc i -> acc +. size i) 0. model in
  let check what =
    Alcotest.(check int) (what ^ ": length") (Queue.length model) (F.length q);
    Alcotest.(check bool) (what ^ ": is_empty") (Queue.is_empty model)
      (F.is_empty q);
    Alcotest.(check (float 0.)) (what ^ ": bits") (bits ()) (F.occupancy q);
    Alcotest.(check int) (what ^ ": queued") !queued (F.total_queued q);
    Alcotest.(check int) (what ^ ": dropped") !dropped (F.total_dropped q);
    Alcotest.(check (float 0.)) (what ^ ": dropped bits") !dropped_bits
      (F.total_dropped_bits q)
  in
  let push n =
    for _ = 1 to n do
      let i = !next in
      incr next;
      (match F.push q (P.data ~flow:0 ~idx:i ~born:0. (size i)) with
      | `Queued ->
        Queue.add i model;
        incr queued
      | `Dropped ->
        incr dropped;
        dropped_bits := !dropped_bits +. size i);
      check (Printf.sprintf "push %d" i)
    done
  in
  let take n =
    for _ = 1 to n do
      let want = Queue.take model in
      (match (F.take q).P.header with
      | P.Data { idx; _ } -> Alcotest.(check int) "FIFO order" want idx
      | _ -> Alcotest.fail "wrong kind");
      check (Printf.sprintf "take %d" want)
    done
  in
  push 6;
  take 4;
  (* the first ring holds 8: these wrap past its end *)
  push 6;
  (* a ninth packet grows the ring while its head is not at 0 *)
  push 3;
  take 2;
  (* the byte bound (2500) is hit before the count is: drops *)
  push 20;
  Alcotest.(check bool) "drops happened" true (!dropped > 0);
  take (Queue.length model);
  Alcotest.(check bool) "drained" true (F.is_empty q);
  rejects "take when drained" (fun () -> F.take q);
  push 3;
  take 3

(* ------------------------------------------------------------------ *)
(* Rr_queue *)

let test_rr_round_robin () =
  let q = Chunksim.Rr_queue.create ~quantum:400. ~capacity:1e6 () in
  (* flow 0 bursts 4 packets, flow 1 has 2: service must interleave *)
  for i = 0 to 3 do
    ignore (Chunksim.Rr_queue.push q ~class_id:0 (P.data ~flow:0 ~idx:i ~born:0. 400.))
  done;
  for i = 0 to 1 do
    ignore (Chunksim.Rr_queue.push q ~class_id:1 (P.data ~flow:1 ~idx:i ~born:0. 400.))
  done;
  let order = ref [] in
  while not (Chunksim.Rr_queue.is_empty q) do
    order := P.flow (Chunksim.Rr_queue.take q) :: !order
  done;
  let order = List.rev !order in
  Alcotest.(check int) "all served" 6 (List.length order);
  (* the first four services alternate between the two classes *)
  (match order with
  | a :: b :: c :: d :: _ ->
    Alcotest.(check bool) "interleaved" true
      (a <> b && c <> d && a <> c || a <> b && b <> c)
  | _ -> Alcotest.fail "expected six packets");
  Alcotest.(check bool) "empty after drain" true (Chunksim.Rr_queue.is_empty q);
  check_close "no bits left after drain" 1e-6 0. (Chunksim.Rr_queue.occupancy q)

let test_rr_capacity_shared () =
  let q = Chunksim.Rr_queue.create ~quantum:400. ~capacity:1000. () in
  Alcotest.(check bool) "first fits" true
    (Chunksim.Rr_queue.push q ~class_id:0 (P.data ~flow:0 ~idx:0 ~born:0. 600.) = `Queued);
  Alcotest.(check bool) "second class overflows shared budget" true
    (Chunksim.Rr_queue.push q ~class_id:1 (P.data ~flow:1 ~idx:0 ~born:0. 600.) = `Dropped);
  Alcotest.(check int) "drop counted" 1 (Chunksim.Rr_queue.total_dropped q)

let test_rr_large_packet_accumulates_deficit () =
  (* a packet bigger than one quantum must still be served *)
  let q = Chunksim.Rr_queue.create ~quantum:100. ~capacity:1e6 () in
  ignore (Chunksim.Rr_queue.push q ~class_id:0 (P.data ~flow:0 ~idx:0 ~born:0. 950.));
  Alcotest.(check bool) "served" true (P.is_data (Chunksim.Rr_queue.take q));
  Alcotest.(check bool) "empty" true (Chunksim.Rr_queue.is_empty q);
  check_close "no bits left" 1e-6 0. (Chunksim.Rr_queue.occupancy q);
  rejects "take when empty" (fun () -> Chunksim.Rr_queue.take q)

let test_iface_drr_discipline () =
  let eng = Sim.Engine.create () in
  let g = Topology.Graph.of_edges ~capacity:1e6 ~delay:0. 2 [ (0, 1) ] in
  let l = Option.get (Topology.Graph.find_link g 0 1) in
  let order = ref [] in
  let iface =
    Chunksim.Iface.create ~discipline:(Chunksim.Iface.Drr 400.) eng l
      ~deliver:(fun p -> order := P.flow p :: !order)
  in
  (* flow 0 bursts first; the first packet seizes the transmitter, the
     rest must alternate with flow 1 *)
  for i = 0 to 2 do
    ignore (Chunksim.Iface.send iface (P.data ~flow:0 ~idx:i ~born:0. 400.))
  done;
  for i = 0 to 2 do
    ignore (Chunksim.Iface.send iface (P.data ~flow:1 ~idx:i ~born:0. 400.))
  done;
  Sim.Engine.run eng;
  let order = List.rev !order in
  Alcotest.(check int) "all delivered" 6 (List.length order);
  (* after the head-of-line packet, services alternate *)
  (match order with
  | _ :: b :: c :: d :: e :: _ ->
    Alcotest.(check bool) "alternation" true (b <> c && c <> d && d <> e)
  | _ -> Alcotest.fail "unexpected")

(* ------------------------------------------------------------------ *)
(* Cache *)

let cache () = Chunksim.Cache.create ~capacity:1000. ()

let test_cache_custody_fifo () =
  let c = cache () in
  Alcotest.(check bool) "store 1" true
    (Chunksim.Cache.put_custody c ~flow:1 ~idx:10 ~bits:100. = `Stored);
  Alcotest.(check bool) "store 2" true
    (Chunksim.Cache.put_custody c ~flow:1 ~idx:11 ~bits:100. = `Stored);
  Alcotest.(check int) "backlog" 2 (Chunksim.Cache.custody_backlog c ~flow:1);
  (match Chunksim.Cache.take_custody c ~flow:1 with
  | Some (idx, bits) ->
    Alcotest.(check int) "oldest first" 10 idx;
    check_close "bits" 0. 100. bits
  | None -> Alcotest.fail "custody empty");
  Alcotest.(check int) "backlog after take" 1
    (Chunksim.Cache.custody_backlog c ~flow:1)

let test_cache_custody_full () =
  let c = cache () in
  Alcotest.(check bool) "big store" true
    (Chunksim.Cache.put_custody c ~flow:0 ~idx:0 ~bits:900. = `Stored);
  Alcotest.(check bool) "overflow refused" true
    (Chunksim.Cache.put_custody c ~flow:0 ~idx:1 ~bits:200. = `Full);
  check_close "occupancy unchanged" 0. 900.
    (Chunksim.Cache.custody_occupancy c)

let test_cache_watermarks () =
  let c = Chunksim.Cache.create ~capacity:1000. () in
  Alcotest.(check bool) "empty below low" true (Chunksim.Cache.below_low c);
  ignore (Chunksim.Cache.put_custody c ~flow:0 ~idx:0 ~bits:750.);
  Alcotest.(check bool) "above high" true (Chunksim.Cache.above_high c);
  Alcotest.(check bool) "not below low" false (Chunksim.Cache.below_low c);
  ignore (Chunksim.Cache.take_custody c ~flow:0);
  Alcotest.(check bool) "drained" true (Chunksim.Cache.below_low c)

let test_cache_lru () =
  let c = cache () in
  Chunksim.Cache.insert_popular c ~flow:0 ~idx:0 ~bits:400.;
  Chunksim.Cache.insert_popular c ~flow:0 ~idx:1 ~bits:400.;
  Alcotest.(check bool) "hit 0" true (Chunksim.Cache.lookup_popular c ~flow:0 ~idx:0);
  (* inserting a third 400-bit entry must evict the LRU, which is idx 1
     because idx 0 was refreshed by the hit *)
  Chunksim.Cache.insert_popular c ~flow:0 ~idx:2 ~bits:400.;
  Alcotest.(check bool) "0 survives" true
    (Chunksim.Cache.lookup_popular c ~flow:0 ~idx:0);
  Alcotest.(check bool) "1 evicted" false
    (Chunksim.Cache.lookup_popular c ~flow:0 ~idx:1);
  Alcotest.(check int) "hits" 2 (Chunksim.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Chunksim.Cache.misses c)

let test_cache_custody_evicts_popular () =
  let c = cache () in
  Chunksim.Cache.insert_popular c ~flow:0 ~idx:0 ~bits:800.;
  Alcotest.(check bool) "custody displaces LRU" true
    (Chunksim.Cache.put_custody c ~flow:1 ~idx:0 ~bits:500. = `Stored);
  Alcotest.(check bool) "popular gone" false
    (Chunksim.Cache.lookup_popular c ~flow:0 ~idx:0)

(* Regression for the custody-vs-popularity audit (workload PR): a
   router holding custody for a hot object must keep every custody
   chunk while the same object's forwarded copies churn the LRU —
   [insert_popular]'s make-room only ever reclaims popularity bytes,
   and the two regions' accounting stays exact under the churn.  (The
   router keys custody by flow id and popularity by content id, so
   one hot object exercises both keyspaces against one byte budget.) *)
let test_cache_custody_survives_popularity_churn () =
  let c = cache () in
  List.iter
    (fun idx ->
      Alcotest.(check bool) "stored" true
        (Chunksim.Cache.put_custody c ~flow:7 ~idx ~bits:100. = `Stored))
    [ 0; 1; 2 ];
  (* 50 later chunks of the same object (content id 42), 5x the whole
     store: every insertion that needs room must evict LRU entries,
     never custody *)
  for idx = 0 to 49 do
    Chunksim.Cache.insert_popular c ~flow:42 ~idx ~bits:100.
  done;
  Alcotest.(check int) "custody backlog intact" 3
    (Chunksim.Cache.custody_backlog c ~flow:7);
  Alcotest.(check (float 1e-9)) "custody bytes intact" 300.
    (Chunksim.Cache.custody_occupancy c);
  Alcotest.(check bool) "popularity confined to the leftover budget" true
    (Chunksim.Cache.popular_occupancy c <= 700.);
  Alcotest.(check (float 1e-9)) "regions account for the whole store"
    (Chunksim.Cache.custody_occupancy c +. Chunksim.Cache.popular_occupancy c)
    (Chunksim.Cache.occupancy c);
  (match Chunksim.Cache.take_custody c ~flow:7 with
  | Some (0, bits) -> Alcotest.(check (float 1e-9)) "fifo head bits" 100. bits
  | Some (idx, _) -> Alcotest.failf "fifo order broken: got idx %d" idx
  | None -> Alcotest.fail "custody emptied by popularity churn");
  Alcotest.(check int) "backlog after take" 2
    (Chunksim.Cache.custody_backlog c ~flow:7)

let test_cache_holding_time () =
  (* the paper's §3.3 envelope: 10 GB behind 40 Gbps holds 2 s *)
  let c = Chunksim.Cache.create ~capacity:(Sim.Units.gigabytes 10.) () in
  check_close "2 seconds" 1e-9 2.
    (Chunksim.Cache.holding_time c ~rate:(Sim.Units.gbps 40.))

let test_cache_validation () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Cache.create: capacity <= 0") (fun () ->
      ignore (Chunksim.Cache.create ~capacity:0. ()))

(* The popularity region against a list-based LRU, newest first, whose
   float ledger adds and subtracts in the store's order: a present key
   is taken out and its bits returned before make-room runs, and
   make-room evicts from the old end.  Stores of about 40 chunks see
   keys from 3,000, half of them from a hot set of 60, so entries are
   re-inserted, evicted, refused and looked up while the index grows,
   wraps and shifts runs back.  Custody shares the budget and evicts
   from the LRU too.  After every operation the occupancy ledgers must
   agree bit for bit, and one lookup of every key, present ones from
   oldest to newest so the recency order is kept, must agree with the
   model's membership. *)
let prop_popular_model =
  let keys = 3_000 and cap = 4_000. in
  let key = QCheck.Gen.(frequency [ (1, int_bound 59); (1, int_bound (keys - 1)) ]) in
  let bits =
    QCheck.Gen.(
      frequency
        [ (99, int_range 50 150 >|= fun b -> float_of_int b *. 0.97);
          (1, return (cap +. 1.)) ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [ (4, pair key bits >|= fun (k, b) -> `Insert (k, b));
          (4, key >|= fun k -> `Lookup k);
          (1, pair (int_bound 3) bits >|= fun (f, b) -> `Put (f, b));
          (1, int_bound 3 >|= fun f -> `Take f) ])
  in
  QCheck.Test.make ~name:"popularity region agrees with a list LRU" ~count:20
    (QCheck.make QCheck.Gen.(list_size (int_range 100 400) op))
    (fun ops ->
      let c = Chunksim.Cache.create ~capacity:cap () in
      let lru = ref [] and popular = ref 0. and custody = ref 0. in
      let hits = ref 0 and misses = ref 0 in
      let held = Array.init 4 (fun _ -> Queue.create ()) in
      let next = Array.make 4 0 in
      let rec make_room bits =
        cap -. !custody -. !popular >= bits
        ||
        match List.rev !lru with
        | [] -> false
        | (_, b) :: older_first ->
          lru := List.rev older_first;
          popular := !popular -. b;
          make_room bits
      in
      let lookup k = Chunksim.Cache.lookup_popular c ~flow:(k / 64) ~idx:(k mod 64) in
      let lookup_both k =
        match List.assoc_opt k !lru with
        | Some b ->
          incr hits;
          lru := (k, b) :: List.remove_assoc k !lru;
          lookup k
        | None ->
          incr misses;
          not (lookup k)
      in
      let agrees () =
        let present = Array.make keys false in
        List.iter (fun (k, _) -> present.(k) <- true) !lru;
        List.for_all lookup_both (List.rev_map fst !lru)
        && Seq.for_all
             (fun k -> present.(k) || (incr misses; not (lookup k)))
             (Seq.init keys Fun.id)
        && Chunksim.Cache.hits c = !hits
        && Chunksim.Cache.misses c = !misses
        && Chunksim.Cache.popular_occupancy c = !popular
        && Chunksim.Cache.custody_occupancy c = !custody
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | `Insert (k, bits) ->
              Chunksim.Cache.insert_popular c ~flow:(k / 64) ~idx:(k mod 64) ~bits;
              (match List.assoc_opt k !lru with
              | Some b ->
                lru := List.remove_assoc k !lru;
                popular := !popular -. b
              | None -> ());
              if make_room bits then begin
                lru := (k, bits) :: !lru;
                popular := !popular +. bits
              end;
              true
            | `Lookup k -> lookup_both k
            | `Put (flow, bits) ->
              let idx = next.(flow) in
              let stored = make_room bits in
              if stored then begin
                Queue.add (idx, bits) held.(flow);
                next.(flow) <- idx + 1;
                custody := !custody +. bits
              end;
              Chunksim.Cache.put_custody c ~flow ~idx ~bits
              = if stored then `Stored else `Full
            | `Take flow ->
              let expect = Queue.take_opt held.(flow) in
              Option.iter (fun (_, b) -> custody := !custody -. b) expect;
              Chunksim.Cache.take_custody c ~flow = expect
          in
          same && agrees ())
        ops)

(* The popularity region allocates nothing once warm: a full store
   takes 100,000 operations, alternately a lookup (about half hit) and
   an insert (evicting the oldest entry, or refreshing a present one).
   Keys are drawn before measuring, since an Rng draw allocates.  The
   figure is bit-deterministic and frozen with 1.25x headroom, which at
   0 admits no allocation. *)
let test_cache_popular_alloc () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let bits = 1_000. and full = 2_000 in
    let c = Chunksim.Cache.create ~capacity:(float_of_int full *. bits) () in
    for k = 0 to full - 1 do
      Chunksim.Cache.insert_popular c ~flow:(k / 64) ~idx:(k mod 64) ~bits
    done;
    let rng = Sim.Rng.create 11L in
    let ops = 100_000 in
    let keys = Array.init ops (fun _ -> Sim.Rng.int rng (2 * full)) in
    let before = Gc.minor_words () in
    for i = 0 to ops - 1 do
      let k = keys.(i) in
      if i land 1 = 0 then
        ignore (Chunksim.Cache.lookup_popular c ~flow:(k / 64) ~idx:(k mod 64))
      else Chunksim.Cache.insert_popular c ~flow:(k / 64) ~idx:(k mod 64) ~bits
    done;
    let per_op = (Gc.minor_words () -. before) /. float_of_int ops in
    let frozen = 0.0 in
    if per_op > 1.25 *. frozen then
      Alcotest.failf "%g minor words/op, frozen %g, bound %g" per_op frozen
        (1.25 *. frozen);
    Alcotest.(check bool) "lookups hit and miss" true
      (Chunksim.Cache.hits c > 0 && Chunksim.Cache.misses c > 0)

(* ------------------------------------------------------------------ *)
(* Iface + Net *)

let test_iface_serialisation () =
  let eng = Sim.Engine.create () in
  let g = Topology.Graph.of_edges ~capacity:1e6 ~delay:0.01 2 [ (0, 1) ] in
  let l = Option.get (Topology.Graph.find_link g 0 1) in
  let arrivals = ref [] in
  let iface =
    Chunksim.Iface.create eng l ~deliver:(fun p ->
        arrivals := (Sim.Engine.now eng, p) :: !arrivals)
  in
  (* two 10^5-bit packets at 10^6 bps: tx 0.1s each, +10ms delay *)
  ignore (Chunksim.Iface.send iface (P.data ~flow:0 ~idx:0 ~born:0. 1e5));
  ignore (Chunksim.Iface.send iface (P.data ~flow:0 ~idx:1 ~born:0. 1e5));
  Sim.Engine.run eng;
  match List.rev !arrivals with
  | [ (t0, _); (t1, _) ] ->
    check_close "first arrival" 1e-9 0.11 t0;
    check_close "second arrival" 1e-9 0.21 t1;
    check_close "tx bits" 0. 2e5 (Chunksim.Iface.tx_bits iface);
    Alcotest.(check int) "tx packets" 2 (Chunksim.Iface.tx_packets iface)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_iface_utilisation () =
  let eng = Sim.Engine.create () in
  let g = Topology.Graph.of_edges ~capacity:1e6 ~delay:0. 2 [ (0, 1) ] in
  let l = Option.get (Topology.Graph.find_link g 0 1) in
  let iface = Chunksim.Iface.create eng l ~deliver:(fun _ -> ()) in
  (* 0.5 s of transmission, observed at t = 1 s *)
  ignore (Chunksim.Iface.send iface (P.data ~flow:0 ~idx:0 ~born:0. 5e5));
  ignore (Sim.Engine.schedule eng ~delay:1. (fun () -> ()));
  Sim.Engine.run eng;
  check_close "50% busy" 1e-9 0.5
    (Chunksim.Iface.utilisation iface ~now:(Sim.Engine.now eng))

let test_iface_wire_loss () =
  let eng = Sim.Engine.create () in
  let g = Topology.Graph.of_edges ~capacity:1e9 ~delay:0. 2 [ (0, 1) ] in
  let l = Option.get (Topology.Graph.find_link g 0 1) in
  let delivered = ref 0 in
  let iface =
    Chunksim.Iface.create ~loss:(0.5, Sim.Rng.create 42L) eng l
      ~deliver:(fun _ -> incr delivered)
  in
  for i = 0 to 199 do
    ignore (Chunksim.Iface.send iface (P.data ~flow:0 ~idx:i ~born:0. 1e3))
  done;
  Sim.Engine.run eng;
  let lost = Chunksim.Iface.wire_losses iface in
  Alcotest.(check int) "conservation" 200 (!delivered + lost);
  Alcotest.(check bool)
    (Printf.sprintf "about half lost (%d)" lost)
    true
    (lost > 60 && lost < 140)

(* the transmitter costs exactly one engine event per transmitted
   packet (the overhaul's core invariant), lossy or not *)
let test_iface_one_event_per_packet () =
  List.iter
    (fun loss ->
      let eng = Sim.Engine.create () in
      let g = Topology.Graph.of_edges ~capacity:1e6 ~delay:0.002 2 [ (0, 1) ] in
      let l = Option.get (Topology.Graph.find_link g 0 1) in
      let delivered = ref 0 in
      let iface =
        Chunksim.Iface.create ?loss ~queue_bits:1e9 eng l ~deliver:(fun _ ->
            incr delivered)
      in
      let n = 50 in
      for i = 0 to n - 1 do
        ignore (Chunksim.Iface.send iface (P.data ~flow:0 ~idx:i ~born:0. 1e4))
      done;
      Sim.Engine.run eng;
      Alcotest.(check int) "all delivered or lost" n
        (!delivered + Chunksim.Iface.wire_losses iface);
      Alcotest.(check int) "one event per packet" n
        (Sim.Engine.events_handled eng))
    [ None; Some (0.3, Sim.Rng.create 5L) ]

(* per-packet allocation in the transmitter is gated: no per-packet
   closures, options or boxed floats, so once the rings have grown a
   packet allocates nothing.  The figure is bit-deterministic and
   frozen with 1.25x headroom, which at 0 admits no allocation. *)
let test_iface_alloc_budget () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let eng = Sim.Engine.create () in
    let g = Topology.Graph.of_edges ~capacity:1e9 ~delay:0. 2 [ (0, 1) ] in
    let l = Option.get (Topology.Graph.find_link g 0 1) in
    let iface =
      Chunksim.Iface.create ~queue_bits:1e12 eng l ~deliver:(fun _ -> ())
    in
    let p = P.data ~flow:0 ~idx:0 ~born:0. 1e3 in
    (* warm up: grow the heap and FIFO rings past steady-state size *)
    for _ = 1 to 1_000 do
      ignore (Chunksim.Iface.send iface p)
    done;
    Sim.Engine.run eng;
    let rounds = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      ignore (Chunksim.Iface.send iface p)
    done;
    Sim.Engine.run eng;
    let per_packet = (Gc.minor_words () -. before) /. float_of_int rounds in
    let frozen = 0.0 in
    if per_packet > 1.25 *. frozen then
      Alcotest.failf "%g minor words/packet, frozen %g, bound %g"
        per_packet frozen (1.25 *. frozen)

(* An eager two-event reference transmitter: a serialisation-complete
   event pops the next packet and schedules an arrival, which kills,
   loses or delivers.  The interface's lazy one-event transmitter must
   match it bit for bit. *)
let eager_reference ~discipline ~loss eng (l : Topology.Link.t) ~deliver =
  let push, pop, drops =
    match discipline with
    | Chunksim.Iface.Fifo_discipline ->
      let q = Chunksim.Fifo.create ~capacity:6e4 in
      ( Chunksim.Fifo.push q,
        (fun () ->
          if Chunksim.Fifo.is_empty q then None else Some (Chunksim.Fifo.take q)),
        fun () -> Chunksim.Fifo.total_dropped q )
    | Chunksim.Iface.Drr quantum ->
      let q = Chunksim.Rr_queue.create ~quantum ~capacity:6e4 () in
      ( (fun p -> Chunksim.Rr_queue.push q ~class_id:(P.flow p) p),
        (fun () ->
          if Chunksim.Rr_queue.is_empty q then None
          else Some (Chunksim.Rr_queue.take q)),
        fun () -> Chunksim.Rr_queue.total_dropped q )
  in
  let busy = ref false and up = ref true and on_wire = ref 0 and kill = ref 0 in
  let tx_bits = ref 0. and losses = ref 0 and faults = ref 0 in
  let arrive p () =
    decr on_wire;
    if !kill > 0 then (decr kill; incr faults)
    else
      match loss with
      | Some (prob, rng) when Sim.Rng.float rng 1. < prob -> incr losses
      | Some _ | None -> deliver p
  in
  let rec kick () =
    if (not !busy) && !up then
      match pop () with
      | None -> ()
      | Some p ->
        busy := true;
        incr on_wire;
        let tx = p.P.size /. l.Topology.Link.capacity in
        ignore
          (Sim.Engine.schedule eng ~delay:tx (fun () ->
               busy := false;
               tx_bits := !tx_bits +. p.P.size;
               ignore (Sim.Engine.schedule eng ~delay:l.Topology.Link.delay (arrive p));
               kick ()))
  in
  let send p =
    if not !up then `Dropped
    else match push p with `Dropped -> `Dropped | `Queued -> kick (); `Queued
  in
  let set_down policy =
    if !up then begin
      up := false;
      kill := !kill + !on_wire;
      if policy = `Drop_queued then
        while pop () <> None do incr faults done
    end
  in
  let set_up () = if not !up then (up := true; kick ()) in
  (send, set_down, set_up, fun () -> (drops (), !losses, !faults, !tx_bits))

(* bursts that overflow the 6e4-bit queue, mid-run arrivals while busy
   and after idling, and optionally two outages mid-burst (held queue,
   then flushed queue) *)
let iface_delivery_trace ~discipline ~loss ~outage ~reference () =
  let eng = Sim.Engine.create () in
  let g = Topology.Graph.of_edges ~capacity:1e6 ~delay:0.003 2 [ (0, 1) ] in
  let l = Option.get (Topology.Graph.find_link g 0 1) in
  let idx p = match p.P.header with P.Data { idx; _ } -> idx | _ -> -1 in
  let trace = ref [] in
  let deliver p =
    trace :=
      Printf.sprintf "%.17g f%d i%d" (Sim.Engine.now eng) (P.flow p) (idx p)
      :: !trace
  in
  let loss = Option.map (fun prob -> (prob, Sim.Rng.create 7L)) loss in
  let send, set_down, set_up, stats =
    if reference then eager_reference ~discipline ~loss eng l ~deliver
    else
      let i =
        Chunksim.Iface.create ?loss ~queue_bits:6e4 ~discipline eng l ~deliver
      in
      ( Chunksim.Iface.send i,
        (fun policy -> Chunksim.Iface.set_down ~policy i),
        (fun () -> Chunksim.Iface.set_up i),
        fun () ->
          Chunksim.Iface.
            (drops i, wire_losses i, fault_drops i, tx_bits i) )
  in
  let send flow idx bits = ignore (send (P.data ~flow ~idx ~born:0. bits)) in
  let at time f = ignore (Sim.Engine.schedule eng ~delay:time f) in
  for i = 0 to 9 do
    send 0 i (float_of_int (4_000 + (i * 700)));
    send 1 i 8_000.
  done;
  for i = 10 to 14 do
    at (0.05 *. float_of_int i) (fun () -> send (i mod 2) i 5_000.)
  done;
  at 2. (fun () -> send 0 99 1_000.);
  if outage then begin
    at 0.021 (fun () -> set_down `Hold_queued);
    at 0.043 set_up;
    at 0.061 (fun () -> set_down `Drop_queued);
    at 0.52 set_up
  end;
  Sim.Engine.run eng;
  (List.rev !trace, stats ())

let check_matches_reference ?(outage = false) discipline =
  List.iter
    (fun loss ->
      let run reference =
        iface_delivery_trace ~discipline ~loss ~outage ~reference ()
      in
      let trace, (drops, losses, faults, bits) = run false in
      let rtrace, (rdrops, rlosses, rfaults, rbits) = run true in
      Alcotest.(check (list string)) "delivery order and times" rtrace trace;
      Alcotest.(check int) "drops" rdrops drops;
      Alcotest.(check int) "wire losses" rlosses losses;
      Alcotest.(check int) "fault drops" rfaults faults;
      Alcotest.(check (float 0.)) "tx bits" rbits bits;
      Alcotest.(check bool) "queue overflowed" true (outage || drops > 0);
      Alcotest.(check bool) "loss and outages exercised" true
        ((loss = None || losses > 0) && ((not outage) || faults > 0)))
    [ None; Some 0.3 ]

let test_iface_reference_fifo () =
  check_matches_reference Chunksim.Iface.Fifo_discipline

let test_iface_reference_drr () =
  check_matches_reference (Chunksim.Iface.Drr 4_000.)

let test_iface_reference_outage () =
  check_matches_reference ~outage:true Chunksim.Iface.Fifo_discipline

(* The delivery traces above, pinned by Digest (trace, then drops,
   losses, fault drops and tx bits) as the list-queue transmitter
   produced them, for both disciplines, with and without wire loss and
   outages. *)
let test_iface_pinned_traces () =
  List.iter
    (fun (name, discipline, loss, outage, want) ->
      let trace, (drops, losses, faults, bits) =
        iface_delivery_trace ~discipline ~loss ~outage ~reference:false ()
      in
      let got =
        Digest.to_hex
          (Digest.string
             (String.concat "\n" trace
             ^ Printf.sprintf "|%d %d %d %.17g" drops losses faults bits))
      in
      Alcotest.(check string)
        (Printf.sprintf "%s loss=%b outage=%b" name (loss <> None) outage)
        want got)
    Chunksim.Iface.
      [
        ("fifo", Fifo_discipline, None, false, "d362db994671de0c3f9230dfecd1e475");
        ("fifo", Fifo_discipline, Some 0.3, false, "b3d702e4bcb66991e4adf1510d026f4b");
        ("fifo", Fifo_discipline, None, true, "d846c4aabd36a6462a1fe70567bd68b8");
        ("fifo", Fifo_discipline, Some 0.3, true, "40be41b14edd47520521ae4cc227748d");
        ("drr", Drr 4_000., None, false, "357ed5400f2915c4346aa77fe9aef39f");
        ("drr", Drr 4_000., Some 0.3, false, "898bbeada83996b02f565f2161d23572");
        ("drr", Drr 4_000., None, true, "8c04b477a3d1d78ba0ff82d1e3912b18");
        ("drr", Drr 4_000., Some 0.3, true, "f78d2a184b75d345ee25f1ecdb349be0");
      ]

let test_net_delivery_and_handlers () =
  let eng = Sim.Engine.create () in
  let g = Topology.Graph.of_edges ~capacity:1e6 ~delay:1e-3 3 [ (0, 1); (1, 2) ] in
  let net = Chunksim.Net.create eng g in
  let seen_at_1 = ref 0 in
  (* node 1 relays data to node 2 *)
  Chunksim.Net.set_handler net 1 (fun ~from:_ p ->
      incr seen_at_1;
      let l = Option.get (Topology.Graph.find_link g 1 2) in
      ignore (Chunksim.Net.send net ~via:l p));
  let done_at_2 = ref false in
  Chunksim.Net.set_handler net 2 (fun ~from p ->
      (match from with
      | Some l -> Alcotest.(check int) "arrived over 1->2" 1 l.Topology.Link.src
      | None -> Alcotest.fail "expected a link");
      Alcotest.(check bool) "payload intact" true (P.is_data p);
      done_at_2 := true);
  let l01 = Option.get (Topology.Graph.find_link g 0 1) in
  ignore (Chunksim.Net.send net ~via:l01 (P.data ~flow:0 ~idx:0 ~born:0. 1e4));
  Sim.Engine.run eng;
  Alcotest.(check int) "relay saw it" 1 !seen_at_1;
  Alcotest.(check bool) "delivered end to end" true !done_at_2

let test_net_inject () =
  let eng = Sim.Engine.create () in
  let g = Topology.Graph.of_edges 2 [ (0, 1) ] in
  let net = Chunksim.Net.create eng g in
  let got = ref false in
  Chunksim.Net.set_handler net 0 (fun ~from p ->
      Alcotest.(check bool) "local" true (from = None);
      ignore p;
      got := true);
  Chunksim.Net.inject net ~at:0 (P.backpressure ~flow:0 ~engage:true);
  Alcotest.(check bool) "handler ran synchronously" true !got

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_basics () =
  let tr = Chunksim.Trace.create () in
  Chunksim.Trace.record tr ~time:1. (Chunksim.Trace.Cached { node = 1; flow = 0; idx = 5 });
  Chunksim.Trace.record tr ~time:2.
    (Chunksim.Trace.Bp_signal { node = 1; flow = 0; engage = true });
  Alcotest.(check int) "count cached" 1
    (Chunksim.Trace.count tr (function
      | Chunksim.Trace.Cached _ -> true
      | _ -> false));
  (match Chunksim.Trace.events tr with
  | [ (t1, _); (t2, _) ] ->
    check_close "oldest first" 0. 1. t1;
    check_close "then newer" 0. 2. t2
  | _ -> Alcotest.fail "expected two events");
  Chunksim.Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Chunksim.Trace.events tr))

let test_trace_limit () =
  let tr = Chunksim.Trace.create ~limit:10 () in
  for i = 0 to 99 do
    Chunksim.Trace.record tr ~time:(float_of_int i)
      (Chunksim.Trace.Flow_complete { flow = i; fct = 0. })
  done;
  let evs = Chunksim.Trace.events tr in
  Alcotest.(check bool) "bounded" true (List.length evs <= 20);
  (* newest events survive *)
  let has_99 =
    List.exists
      (fun (_, e) ->
        match e with
        | Chunksim.Trace.Flow_complete { flow = 99; _ } -> true
        | _ -> false)
      evs
  in
  Alcotest.(check bool) "newest kept" true has_99

(* Regression for the amortised trim: the ring trims only when the
   size exceeds [2 * limit], and what survives must be exactly the
   [limit] newest events, still in chronological order, with [count]
   and [find_all] agreeing with [events]. *)
let test_trace_trim_regression () =
  let limit = 10 in
  let tr = Chunksim.Trace.create ~limit () in
  let n = (2 * limit) + 1 in
  for i = 0 to n - 1 do
    Chunksim.Trace.record tr ~time:(float_of_int i)
      (Chunksim.Trace.Flow_complete { flow = i; fct = 0. })
  done;
  let evs = Chunksim.Trace.events tr in
  Alcotest.(check int) "exactly limit survive" limit (List.length evs);
  let flows =
    List.map
      (fun (_, e) ->
        match e with
        | Chunksim.Trace.Flow_complete { flow; _ } -> flow
        | _ -> Alcotest.fail "unexpected event kind")
      evs
  in
  let expected = List.init limit (fun k -> n - limit + k) in
  Alcotest.(check (list int)) "newest, chronological" expected flows;
  List.iter2
    (fun (t, _) flow -> check_close "timestamp matches flow" 0. (float_of_int flow) t)
    evs flows;
  Alcotest.(check int) "count agrees" limit
    (Chunksim.Trace.count tr (fun _ -> true));
  Alcotest.(check int) "find_all agrees" limit
    (List.length (Chunksim.Trace.find_all tr (fun _ -> true)));
  (* one more record after a trim must not trim again prematurely *)
  Chunksim.Trace.record tr ~time:(float_of_int n)
    (Chunksim.Trace.Flow_complete { flow = n; fct = 0. });
  Alcotest.(check int) "grows past limit between trims" (limit + 1)
    (List.length (Chunksim.Trace.events tr))

let test_trace_taps () =
  let tr = Chunksim.Trace.create ~limit:5 () in
  let seen = ref [] in
  Chunksim.Trace.on_record tr (fun time e -> seen := (time, e) :: !seen);
  let n = 20 in
  for i = 0 to n - 1 do
    Chunksim.Trace.record tr ~time:(float_of_int i)
      (Chunksim.Trace.Cached { node = 0; flow = 0; idx = i })
  done;
  (* taps see every event, unbounded by the ring's limit *)
  Alcotest.(check int) "tap saw all" n (List.length !seen);
  Alcotest.(check bool) "ring stayed bounded" true
    (List.length (Chunksim.Trace.events tr) <= 2 * 5)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_fifo_conserves_bits =
  QCheck.Test.make ~name:"fifo occupancy equals queued minus popped" ~count:100
    QCheck.(list (int_range 1 1000))
    (fun sizes ->
      let q = Chunksim.Fifo.create ~capacity:1e9 in
      List.iteri
        (fun i s ->
          ignore (Chunksim.Fifo.push q (P.data ~flow:0 ~idx:i ~born:0. (float_of_int s))))
        sizes;
      let total = List.fold_left ( + ) 0 sizes in
      let popped = ref 0. in
      for _ = 1 to List.length sizes / 2 do
        popped := !popped +. (Chunksim.Fifo.take q).P.size
      done;
      Float.abs (Chunksim.Fifo.occupancy q +. !popped -. float_of_int total)
      < 1e-6)

let prop_cache_occupancy_consistent =
  QCheck.Test.make ~name:"cache occupancy = custody + popular" ~count:100
    QCheck.(list (pair (int_range 0 5) (int_range 1 100)))
    (fun ops ->
      let c = Chunksim.Cache.create ~capacity:5000. () in
      List.iteri
        (fun i (flow, bits) ->
          let bits = float_of_int bits in
          if i mod 2 = 0 then
            ignore (Chunksim.Cache.put_custody c ~flow ~idx:i ~bits)
          else Chunksim.Cache.insert_popular c ~flow ~idx:i ~bits)
        ops;
      Float.abs
        (Chunksim.Cache.occupancy c
        -. (Chunksim.Cache.custody_occupancy c
           +. Chunksim.Cache.popular_occupancy c))
      < 1e-9
      && Chunksim.Cache.occupancy c <= Chunksim.Cache.capacity c +. 1e-9)

let prop_rr_work_conserving =
  QCheck.Test.make ~name:"rr queue conserves every queued packet" ~count:100
    QCheck.(list (pair (int_range 0 4) (int_range 1 500)))
    (fun ops ->
      let q = Chunksim.Rr_queue.create ~quantum:200. ~capacity:1e9 () in
      let queued = ref 0 in
      List.iteri
        (fun i (cls, size) ->
          match
            Chunksim.Rr_queue.push q ~class_id:cls
              (P.data ~flow:cls ~idx:i ~born:0. (float_of_int size))
          with
          | `Queued -> incr queued
          | `Dropped -> ())
        ops;
      let popped = ref 0 in
      while not (Chunksim.Rr_queue.is_empty q) do
        ignore (Chunksim.Rr_queue.take q);
        incr popped
      done;
      !popped = !queued && Float.abs (Chunksim.Rr_queue.occupancy q) < 1e-6)

let prop_rr_two_class_fairness =
  QCheck.Test.make ~name:"rr queue serves equal backlogs near-equally"
    ~count:50
    QCheck.(int_range 2 40)
    (fun n ->
      let q = Chunksim.Rr_queue.create ~quantum:400. ~capacity:1e9 () in
      for i = 0 to n - 1 do
        ignore (Chunksim.Rr_queue.push q ~class_id:0 (P.data ~flow:0 ~idx:i ~born:0. 400.));
        ignore (Chunksim.Rr_queue.push q ~class_id:1 (P.data ~flow:1 ~idx:i ~born:0. 400.))
      done;
      (* after any even prefix of services, counts differ by at most 1 *)
      let c0 = ref 0 and c1 = ref 0 in
      let ok = ref true in
      for _ = 1 to 2 * n do
        if Chunksim.Rr_queue.is_empty q then ok := false
        else if P.flow (Chunksim.Rr_queue.take q) = 0 then incr c0
        else incr c1;
        if abs (!c0 - !c1) > 1 then ok := false
      done;
      !ok)

let prop_custody_per_flow_fifo =
  QCheck.Test.make ~name:"custody is FIFO within each flow" ~count:100
    QCheck.(list (int_range 0 3))
    (fun flows ->
      let c = Chunksim.Cache.create ~capacity:1e9 () in
      let counters = Array.make 4 0 in
      List.iter
        (fun f ->
          ignore
            (Chunksim.Cache.put_custody c ~flow:f ~idx:counters.(f) ~bits:10.);
          counters.(f) <- counters.(f) + 1)
        flows;
      let expect = Array.make 4 0 in
      let ok = ref true in
      for f = 0 to 3 do
        let rec drain () =
          match Chunksim.Cache.take_custody c ~flow:f with
          | Some (idx, _) ->
            if idx <> expect.(f) then ok := false;
            expect.(f) <- expect.(f) + 1;
            drain ()
          | None -> ()
        in
        drain ()
      done;
      !ok && Array.for_all2 ( = ) expect counters)

(* The drain's snapshot: exactly the flows holding custody, ascending,
   whatever order they gained and lost custody in, and into one buffer
   that is only replaced when it is too short.  Stores, takes and
   peek-then-commits interleave across flows; after every operation the
   store is compared with a per-flow model of held chunk indices. *)
let prop_custody_flows_sorted =
  let op =
    QCheck.Gen.(
      pair (int_bound 2) (int_range 0 40) >|= fun (k, flow) ->
      match k with 0 -> `Put flow | 1 -> `Take flow | _ -> `Peek_commit flow)
  in
  QCheck.Test.make ~name:"custody_flows lists holders ascending" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 300) op))
    (fun ops ->
      let c = Chunksim.Cache.create ~capacity:1e9 () in
      let model = Array.init 41 (fun _ -> Queue.create ()) in
      let next = Array.make 41 0 in
      let buf = ref [||] in
      let check () =
        let expect =
          List.filter (fun f -> not (Queue.is_empty model.(f)))
            (List.init 41 Fun.id)
        in
        let before = !buf in
        let n = Chunksim.Cache.custody_flows c buf in
        (!buf == before) = (Array.length before >= n)
        && Array.to_list (Array.sub !buf 0 n) = expect
        && Chunksim.Cache.custody_is_empty c = (expect = [])
        && List.for_all
             (fun f ->
               Chunksim.Cache.custody_backlog c ~flow:f
               = Queue.length model.(f))
             expect
      in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | `Put flow ->
              ignore
                (Chunksim.Cache.put_custody c ~flow ~idx:next.(flow) ~bits:1.);
              Queue.add next.(flow) model.(flow);
              next.(flow) <- next.(flow) + 1;
              true
            | `Take flow ->
              Chunksim.Cache.take_custody c ~flow
              = Option.map (fun i -> (i, 1.)) (Queue.take_opt model.(flow))
            | `Peek_commit flow ->
              let idx = Chunksim.Cache.peek_custody c ~flow in
              if idx >= 0 then Chunksim.Cache.commit_custody c ~flow;
              idx = Option.value (Queue.take_opt model.(flow)) ~default:(-1)
          in
          agrees && check ())
        ops)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "chunksim"
    [
      ( "packet",
        [
          Alcotest.test_case "request" `Quick test_packet_request;
          Alcotest.test_case "data" `Quick test_packet_data;
          Alcotest.test_case "pp" `Quick test_packet_pp;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "order and bounds" `Quick test_fifo_order_and_bounds;
          Alcotest.test_case "empty" `Quick test_fifo_empty;
        ] );
      (* this group and "cache gate" and "iface gate" below stand alone
         so CI runs them by name *)
      ( "fifo ring",
        [
          Alcotest.test_case "wrap, growth and counters" `Quick test_fifo_ring;
        ] );
      ( "cache",
        [
          Alcotest.test_case "custody fifo" `Quick test_cache_custody_fifo;
          Alcotest.test_case "custody full" `Quick test_cache_custody_full;
          Alcotest.test_case "watermarks" `Quick test_cache_watermarks;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "custody evicts popular" `Quick test_cache_custody_evicts_popular;
          Alcotest.test_case "custody survives popularity churn" `Quick
            test_cache_custody_survives_popularity_churn;
          Alcotest.test_case "paper holding time" `Quick test_cache_holding_time;
          Alcotest.test_case "validation" `Quick test_cache_validation;
          QCheck_alcotest.to_alcotest prop_popular_model;
        ] );
      ( "cache gate",
        [
          Alcotest.test_case "popularity allocation" `Quick
            test_cache_popular_alloc;
        ] );
      ( "iface",
        [
          Alcotest.test_case "serialisation" `Quick test_iface_serialisation;
          Alcotest.test_case "drr discipline" `Quick test_iface_drr_discipline;
          Alcotest.test_case "utilisation" `Quick test_iface_utilisation;
          Alcotest.test_case "wire loss" `Quick test_iface_wire_loss;
          Alcotest.test_case "one event per packet" `Quick
            test_iface_one_event_per_packet;
          Alcotest.test_case "matches eager reference (FIFO)" `Quick
            test_iface_reference_fifo;
          Alcotest.test_case "matches eager reference (DRR)" `Quick
            test_iface_reference_drr;
          Alcotest.test_case "matches eager reference (outage)" `Quick
            test_iface_reference_outage;
          Alcotest.test_case "delivery traces pinned" `Quick
            test_iface_pinned_traces;
        ] );
      ( "iface gate",
        [ Alcotest.test_case "allocation budget" `Quick test_iface_alloc_budget ] );
      ( "rr_queue",
        [
          Alcotest.test_case "round robin" `Quick test_rr_round_robin;
          Alcotest.test_case "shared capacity" `Quick test_rr_capacity_shared;
          Alcotest.test_case "large packet" `Quick test_rr_large_packet_accumulates_deficit;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery and handlers" `Quick test_net_delivery_and_handlers;
          Alcotest.test_case "inject" `Quick test_net_inject;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "limit" `Quick test_trace_limit;
          Alcotest.test_case "trim regression" `Quick test_trace_trim_regression;
          Alcotest.test_case "taps" `Quick test_trace_taps;
        ] );
      ( "properties",
        qc
          [
            prop_fifo_conserves_bits;
            prop_cache_occupancy_consistent;
            prop_rr_work_conserving;
            prop_rr_two_class_fairness;
            prop_custody_per_flow_fifo;
            prop_custody_flows_sorted;
          ] );
    ]
