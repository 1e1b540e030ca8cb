(* Tests for the INRPP protocol: config, the flow table, session
   bookkeeping, the rate estimator (eq. 1), the phase machine, detour tables,
   and full protocol runs exercising push/detour/back-pressure. *)

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_default_valid () =
  match Inrpp.Config.validate Inrpp.Config.default with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m

let test_config_rejections () =
  let bad f =
    match Inrpp.Config.validate (f Inrpp.Config.default) with
    | Ok _ -> Alcotest.fail "accepted invalid config"
    | Error _ -> ()
  in
  bad (fun c -> { c with Inrpp.Config.chunk_bits = 0. });
  bad (fun c -> { c with Inrpp.Config.anticipation = -1 });
  bad (fun c -> { c with Inrpp.Config.pitless = true; icn_caching = true })

let test_config_chunk_tx_time () =
  check_close "80kb at 10Mbps" 1e-12 8e-3
    (Inrpp.Config.default.Inrpp.Config.chunk_bits /. 10e6)

(* ------------------------------------------------------------------ *)
(* Flow table *)

module Ft = Inrpp.Flow_table

(* install in one call as Router.install_flow does *)
let ft_install t ~flow ~data_port ~req_port =
  let slot = Ft.add t ~flow in
  Ft.set_entry t slot ~data_port ~req_port;
  slot

let ft_install_release () =
  let t = Ft.create ~gap:0.5 () in
  Alcotest.(check int) "empty find" (-1) (Ft.find t 7);
  Alcotest.(check int) "empty live" 0 (Ft.live t);
  let s = ft_install t ~flow:7 ~data_port:1 ~req_port:(-1) in
  (* the first find walks the chain, comparing each slot's stored id *)
  Alcotest.(check int) "find reads the stored id" s (Ft.find t 7);
  Alcotest.(check int) "data port" 1 (Ft.data_port t s);
  Alcotest.(check int) "req port (none)" (-1) (Ft.req_port t s);
  Alcotest.(check int) "live" 1 (Ft.live t);
  Alcotest.(check int) "peak" 1 (Ft.peak t);
  Ft.set_ports t s ~data_port:0 ~req_port:2;
  Alcotest.(check int) "data port updates" 0 (Ft.data_port t s);
  Alcotest.(check int) "req port updates" 2 (Ft.req_port t s);
  Ft.set_bp_local t s true;
  Alcotest.(check int) "release returns the slot" s (Ft.release t ~flow:7);
  Alcotest.(check bool) "freed slot keeps its flags" true (Ft.bp_local t s);
  Alcotest.(check int) "released find" (-1) (Ft.find t 7);
  Alcotest.(check int) "live back to 0" 0 (Ft.live t);
  Alcotest.(check int) "peak sticks" 1 (Ft.peak t);
  Alcotest.(check int) "recycled" 1 (Ft.recycled t);
  Alcotest.(check int) "double release returns -1" (-1) (Ft.release t ~flow:7);
  Alcotest.(check int) "double release no-ops" 1 (Ft.recycled t);
  Alcotest.(check bool) "bytes accounted" true (Ft.approx_bytes t > 0)

let ft_slot_recycling () =
  let t = Ft.create ~gap:0.5 () in
  let slots =
    List.init 8 (fun f ->
        ft_install t ~flow:f ~data_port:(-1) ~req_port:(-1))
  in
  Alcotest.(check int) "peak 8" 8 (Ft.peak t);
  List.iter (fun f -> ignore (Ft.release t ~flow:f)) [ 2; 5 ];
  let s9 = ft_install t ~flow:99 ~data_port:(-1) ~req_port:(-1) in
  (* the free list hands a released slot to the new flow *)
  Alcotest.(check bool) "freed slot reused" true
    (List.mem s9 [ List.nth slots 2; List.nth slots 5 ]);
  Alcotest.(check int) "peak unchanged by reuse" 8 (Ft.peak t);
  Alcotest.(check int) "live" 7 (Ft.live t)

let ft_reinstall_semantics () =
  let t = Ft.create ~gap:0.5 () in
  let s = ft_install t ~flow:3 ~data_port:2 ~req_port:4 in
  Ft.set_bp_local t s true;
  Ft.set_failed_over t s true;
  (* pin the flowlet, then reinstall: slot and pin survive, ports and
     flags reset *)
  let pinned = Ft.flowlet_choose t s ~now:1.0 ~preferred:(Ft.Via 2) in
  Alcotest.(check bool) "pin taken" true (pinned = Ft.Via 2);
  let s' = ft_install t ~flow:3 ~data_port:(-1) ~req_port:(-1) in
  Alcotest.(check int) "reinstall keeps slot" s s';
  Alcotest.(check bool) "bp flag reset" false (Ft.bp_local t s');
  Alcotest.(check bool) "failover flag reset" false (Ft.failed_over t s');
  Alcotest.(check int) "data port reset" (-1) (Ft.data_port t s');
  Alcotest.(check int) "req port reset" (-1) (Ft.req_port t s');
  Alcotest.(check bool) "flowlet pin survives (within gap)" true
    (Ft.flowlet_choose t s' ~now:1.1 ~preferred:Ft.Primary
    = Ft.Via 2);
  Alcotest.(check int) "reinstall is not a release" 0 (Ft.recycled t)

let ft_flags =
  [
    ("bp_local", Ft.bp_local, Ft.set_bp_local);
    ("bp_forwarded", Ft.bp_forwarded, Ft.set_bp_forwarded);
    ("detour_override", Ft.detour_override, Ft.set_detour_override);
    ("bp_outage", Ft.bp_outage, Ft.set_bp_outage);
    ("failed_over", Ft.failed_over, Ft.set_failed_over);
  ]

let ft_flags_roundtrip () =
  let t = Ft.create ~gap:0.5 () in
  let s = ft_install t ~flow:0 ~data_port:(-1) ~req_port:(-1) in
  List.iter
    (fun (name, get, set) ->
      Alcotest.(check bool) (name ^ " starts clear") false (get t s);
      set t s true;
      Alcotest.(check bool) (name ^ " sets") true (get t s);
      (* the other flags must be independent bits *)
      List.iter
        (fun (n2, g2, _) ->
          if n2 <> name then
            Alcotest.(check bool) (name ^ " leaves " ^ n2) false (g2 t s))
        ft_flags;
      set t s false;
      Alcotest.(check bool) (name ^ " clears") false (get t s))
    ft_flags

let test_ft_invalid_args () =
  Alcotest.check_raises "negative gap"
    (Invalid_argument "Flow_table.create: gap < 0") (fun () ->
      ignore (Ft.create ~gap:(-1.) ()));
  let t = Ft.create ~gap:0.5 () in
  Alcotest.check_raises "negative flow"
    (Invalid_argument "Flow_table.add: flow < 0") (fun () ->
      ignore (ft_install t ~flow:(-1) ~data_port:0 ~req_port:0));
  (* the pages are unchecked inside; a slot from outside is checked *)
  List.iter
    (fun slot ->
      Alcotest.check_raises
        (Printf.sprintf "slot %d" slot)
        (Invalid_argument "Flow_table: no such slot")
        (fun () -> ignore (Ft.req_port t slot)))
    [ -1; 0; max_int ]

(* The slot's packed fields at their bounds: flow ids at both ends of
   their range (0 and the int32 maximum), and both ports at 0, at 65534
   and at none ([-1]).  70k flows
   take chain values past 16 bits, so the chain's third byte is in use
   beside the flag byte, and every even flow sets all five flags right
   after its install, before the installs that double the buckets and
   add pages.  Every field and flag reads back unchanged after the
   ramp, after refusals and after recycling.  A value one past any
   bound raises before anything is written. *)
let ft_packed_bounds () =
  let hi = 0x7fff_ffff and port_hi = 0xfffe in
  let t = Ft.create ~gap:0.5 () in
  let n = 70_000 in
  let flow k = if k mod 2 = 0 then k / 2 else hi - (k / 2) in
  let ports k =
    match k mod 3 with
    | 0 -> (port_hi, 0)
    | 1 -> (0, port_hi)
    | _ -> (-1, -1)
  in
  let check_all what =
    for k = 0 to n - 1 do
      let s = Ft.find t (flow k) in
      let d, r = ports k in
      let got = List.map (fun (_, get, _) -> get t s) ft_flags in
      (* consecutive finds are of distinct flows, so each walks the
         chain and compares the slot's stored flow id *)
      if
        s < 0
        || (Ft.data_port t s, Ft.req_port t s) <> (d, r)
        || List.exists (fun f -> f <> (k mod 2 = 0)) got
      then Alcotest.failf "%s: flow %d (k = %d) reads back changed" what (flow k) k
    done
  in
  let install k =
    let d, r = ports k in
    let s = ft_install t ~flow:(flow k) ~data_port:d ~req_port:r in
    if k mod 2 = 0 then List.iter (fun (_, _, set) -> set t s true) ft_flags
  in
  for k = 0 to n - 1 do
    install k;
    if k = 1 then begin
      let s = Ft.find t hi in
      Alcotest.(check bool) "route at int32 max" true
        (Ft.flowlet_choose t s ~now:0. ~preferred:(Ft.Via hi) = Ft.Via hi)
    end
  done;
  check_all "grown";
  Alcotest.(check bool) "route survives growth" true
    (Ft.flowlet_choose t (Ft.find t hi) ~now:0.1 ~preferred:Ft.Primary
    = Ft.Via hi);
  let raises what msg f =
    Alcotest.check_raises what (Invalid_argument ("Flow_table: " ^ msg)) f
  in
  raises "flow id past int32" "flow id outside int32" (fun () ->
      ignore (ft_install t ~flow:(hi + 1) ~data_port:(-1) ~req_port:(-1)));
  Alcotest.(check int) "a refused add adds nothing" (-1) (Ft.find t (hi + 1));
  let s = Ft.find t (flow 2) in
  let port_refused what ~data_port ~req_port =
    raises what "port index outside u16" (fun () ->
        Ft.set_entry t s ~data_port ~req_port)
  in
  port_refused "data port past u16" ~data_port:(port_hi + 1) ~req_port:0;
  port_refused "data port below -1" ~data_port:(-2) ~req_port:0;
  port_refused "req port past u16" ~data_port:0 ~req_port:(port_hi + 1);
  port_refused "req port below -1" ~data_port:0 ~req_port:(-2);
  port_refused "req port at min_int" ~data_port:0 ~req_port:min_int;
  raises "set_ports req port past u16" "port index outside u16" (fun () ->
      Ft.set_ports t s ~data_port:0 ~req_port:(port_hi + 1));
  raises "set_ports data port below -1" "port index outside u16" (fun () ->
      Ft.set_ports t s ~data_port:(-2) ~req_port:0);
  raises "route past int32" "route outside int32" (fun () ->
      ignore (Ft.flowlet_choose t s ~now:10. ~preferred:(Ft.Via (hi + 1))));
  check_all "after refusals";
  Alcotest.(check int) "live" n (Ft.live t);
  for k = 0 to n - 1 do
    if k mod 4 >= 2 then ignore (Ft.release t ~flow:(flow k))
  done;
  for k = 0 to n - 1 do
    if k mod 4 >= 2 then install k
  done;
  check_all "recycled";
  Alcotest.(check int) "recycled slots" (n / 2) (Ft.recycled t)

(* A table that never pins holds no flowlet page.  3000 installs take
   three 1024-slot pages of 12-byte slots and 2048 int32 buckets, and
   [approx_bytes] is exactly that slot-only accounting, plus 16 B of
   header and padding a page, 24 B of pointers a directory slot (four)
   and 200 B of fixed blocks; the words reachable from the table agree.
   The first pin in a page adds that page's flowlet pair, 12 B a slot
   and 24 B of headers, and a second pin there adds nothing. *)
let ft_unpinned_bytes () =
  let t = Ft.create ~gap:0.5 () in
  for flow = 0 to 2999 do
    ignore (ft_install t ~flow ~data_port:0 ~req_port:0)
  done;
  let measured what =
    let live = 8 * Obj.reachable_words (Obj.repr t) in
    if abs (live - Ft.approx_bytes t) > 64 then
      Alcotest.failf "%s: approx_bytes %d, reachable %d B" what
        (Ft.approx_bytes t) live
  in
  let slot_only = (3 * 1024 * 12) + (2048 * 4) + (3 * 16) + (4 * 24) + 200 in
  Alcotest.(check int) "slot-only accounting" slot_only (Ft.approx_bytes t);
  measured "never pinned";
  List.iter
    (fun flow ->
      let s = Ft.find t flow in
      ignore (Ft.flowlet_choose t s ~now:0. ~preferred:Ft.Primary);
      Alcotest.(check int)
        (Printf.sprintf "pin of flow %d" flow)
        (slot_only + (1024 * 12) + 24)
        (Ft.approx_bytes t))
    [ 1500; 1600 ];
  measured "one page pinned"

(* A slot recycled in a page that holds flowlet state reads as
   unpinned: its new flow's first choice pins [preferred], within the
   old pin's gap, and keeps it. *)
let ft_recycled_unpinned () =
  let t = Ft.create ~gap:0.5 () in
  let install flow = ft_install t ~flow ~data_port:(-1) ~req_port:(-1) in
  let slots = Array.init 4 install in
  let choose s now preferred = Ft.flowlet_choose t s ~now ~preferred in
  Alcotest.(check bool) "pin taken" true
    (choose slots.(1) 1.0 (Ft.Via 7) = Ft.Via 7);
  ignore (Ft.release t ~flow:1);
  let s = install 9 in
  Alcotest.(check int) "slot recycled" slots.(1) s;
  Alcotest.(check bool) "first choice pins preferred" true
    (choose s 1.1 (Ft.Via 3) = Ft.Via 3);
  Alcotest.(check bool) "and keeps it" true
    (choose s 1.2 Ft.Primary = Ft.Via 3);
  Alcotest.(check bool) "a never-pinned neighbour" true
    (choose slots.(2) 1.2 (Ft.Via 5) = Ft.Via 5)

(* The table against a plain Hashtbl-of-records model.  The model
   table is created at the table's initial size and fed the same keys,
   so its iteration order is the one {!Ft.iter} must reproduce.  Flows
   0-9 take single operations; op 6 installs a run of fresh flows (128
   to 768, while under 1200 live), each with flags from its id's low
   bits set right after its install, so later runs double the buckets
   and, past 1024 slots, add pages while flagged slots' chains are
   rewritten; or it releases every run flow whose id is a multiple of
   2 to 7, leaving flagged free slots for the next run to take.  After
   every step each live slot's five flags and both ports must read as
   in the model. *)
type ft_model = {
  mutable m_ports : int * int; (* data port, req port *)
  m_flags : bool array; (* in [ft_flags] order *)
  mutable m_pin : (Ft.route * float) option; (* route, last packet *)
}

let prop_flow_table_model =
  QCheck.Test.make ~name:"flow table agrees with a model" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 1 120)
        (quad (int_range 0 6) (int_range 0 9) (int_range (-1) 4) bool))
    (fun ops ->
      let gap = 0.5 in
      let t = Ft.create ~gap () in
      let m : (int, ft_model) Hashtbl.t = Hashtbl.create 16 in
      let now = ref 0. and peak = ref 0 and recycled = ref 0 in
      let fresh = ref 10 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let flags = Array.of_list ft_flags in
      (* (re)install: the flowlet pin survives, everything else resets *)
      let install flow ~data_port ~req_port =
        ignore (ft_install t ~flow ~data_port ~req_port);
        let prev = Hashtbl.find_opt m flow in
        let e =
          {
            m_ports = (data_port, req_port);
            m_flags = Array.make (Array.length flags) false;
            m_pin = Option.bind prev (fun e -> e.m_pin);
          }
        in
        Hashtbl.replace m flow e;
        peak := max !peak (Hashtbl.length m);
        e
      in
      let set_flag flow e i v =
        let _, _, set = flags.(i) in
        set t (Ft.find t flow) v;
        e.m_flags.(i) <- v
      in
      let release flow =
        let s = Ft.find t flow in
        expect (Ft.release t ~flow = s);
        if Hashtbl.mem m flow then incr recycled;
        Hashtbl.remove m flow
      in
      let step (op, flow, a, b) =
        match (op, Hashtbl.find_opt m flow) with
        | 0, _ -> ignore (install flow ~data_port:(3 - a) ~req_port:a)
        | 1, _ -> release flow
        | 6, _ when b ->
          if Hashtbl.length m < 1200 then
            for _ = 1 to 128 * (a + 2) do
              let f = !fresh in
              incr fresh;
              let e =
                install f ~data_port:((f land 0xffff) - 1)
                  ~req_port:(((f * 7919) land 0xffff) - 1)
              in
              Array.iteri
                (fun i _ -> if (f lsr i) land 1 = 1 then set_flag f e i true)
                flags
            done
        | 6, _ ->
          for f = 10 to !fresh - 1 do
            if f mod (a + 3) = 0 && Hashtbl.mem m f then release f
          done
        | 2, Some e -> set_flag flow e ((a + 1) mod Array.length flags) b
        | 3, Some _ ->
          (* [add] on an installed flow finds its slot and resets nothing *)
          expect (Ft.add t ~flow = Ft.find t flow)
        | 4, Some e ->
          let data_port = if b then a else -1 in
          Ft.set_ports t (Ft.find t flow) ~data_port ~req_port:flow;
          e.m_ports <- (data_port, flow)
        | _, Some e ->
          (* [b] steps past the flowlet gap, otherwise stays within it *)
          (now := !now +. if b then gap +. 0.25 else gap /. 4.);
          let preferred = if a < 0 then Ft.Primary else Ft.Via a in
          let pinned =
            match e.m_pin with
            | Some (r, last) when !now -. last <= gap -> r
            | Some _ | None -> preferred
          in
          e.m_pin <- Some (pinned, !now);
          expect (Ft.flowlet_choose t (Ft.find t flow) ~now:!now ~preferred = pinned)
        | _, None -> ()
      in
      List.iter
        (fun op ->
          step op;
          let order = ref [] in
          Ft.iter t (fun flow _ -> order := flow :: !order);
          expect (!order = Hashtbl.fold (fun flow _ acc -> flow :: acc) m []);
          (* the back-pressure walks: [iter]'s order, flagged entries
             only (flags 0 and 1 are bp_local and bp_forwarded) *)
          List.iter
            (fun forwarded ->
              let walked = ref [] in
              Ft.iter_bp t ~forwarded (fun flow _ -> walked := flow :: !walked);
              expect
                (!walked
                = Hashtbl.fold
                    (fun flow e acc ->
                      if e.m_flags.(0) || (forwarded && e.m_flags.(1)) then
                        flow :: acc
                      else acc)
                    m []))
            [ false; true ];
          for flow = 0 to 9 do
            if not (Hashtbl.mem m flow) then expect (Ft.find t flow = -1)
          done;
          Hashtbl.iter
            (fun flow e ->
              let s = Ft.find t flow in
              expect
                (s >= 0 && (Ft.data_port t s, Ft.req_port t s) = e.m_ports);
              Array.iteri
                (fun i (_, get, _) -> expect (get t s = e.m_flags.(i)))
                flags)
            m;
          expect
            (Ft.live t = Hashtbl.length m
            && Ft.peak t = !peak && Ft.recycled t = !recycled))
        ops;
      !ok)

(* Iteration order across resizes: thousands of flows, some with large
   ids up to the int32 maximum, through interleaved installs, releases
   and reinstalls, so the 16-bucket index doubles several times.  A
   stdlib table created at 16 buckets and fed the same operations
   gives, after every batch, the order {!Ft.iter} must follow and the
   flows {!Ft.find} must know. *)
let prop_flow_table_order =
  let flow =
    QCheck.Gen.(
      frequency
        [
          (6, int_range 0 2999);
          (1, map (fun k -> 0x7fff_ffff - k) (int_range 0 299));
          (1, map (fun k -> k * 7_000_003) (int_range 1 299));
        ])
  in
  let batch =
    QCheck.Gen.(list_size (int_range 1 60) (pair (int_range 0 3) flow))
  in
  QCheck.Test.make ~name:"flow table order across resizes" ~count:20
    (QCheck.make
       ~print:(fun bs ->
         Printf.sprintf "%d batches, %d ops" (List.length bs)
           (List.fold_left (fun n b -> n + List.length b) 0 bs))
       QCheck.Gen.(list_size (int_range 50 120) batch))
    (fun batches ->
      let t = Ft.create ~gap:0.5 () in
      let m : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let touched = Hashtbl.create 1024 in
      let install flow =
        ignore (ft_install t ~flow ~data_port:(-1) ~req_port:(-1));
        Hashtbl.replace m flow ()
      in
      let release flow =
        ignore (Ft.release t ~flow);
        Hashtbl.remove m flow
      in
      let step (op, flow) =
        Hashtbl.replace touched flow ();
        match op with
        | 0 | 1 -> install flow
        | 2 -> release flow
        | _ ->
          release flow;
          install flow
      in
      List.for_all
        (fun b ->
          List.iter step b;
          let order = ref [] in
          Ft.iter t (fun flow slot ->
              order := (flow, slot = Ft.find t flow) :: !order);
          !order = Hashtbl.fold (fun flow () acc -> (flow, true) :: acc) m []
          && Ft.live t = Hashtbl.length m
          && Hashtbl.fold
               (fun flow () ok -> ok && (Ft.find t flow >= 0) = Hashtbl.mem m flow)
               touched true)
        batches)

(* Ascending installs, as the protocol and the flows_250k workload hand
   out flow ids, so most installs skip the absence walk above the
   table's high-water id.  Mixed in: releases of a flow right after a
   find put it in the lookup memo (a find after the release must miss),
   reinstalls of lower ids and of the current top (both must walk), and
   a find that misses right before that flow's install (the memo must
   not remember a miss).  After every batch the table must agree with a
   stdlib [Hashtbl] created at 16 buckets and fed the same operations:
   order, lookups, live, peak and recycled. *)
let prop_flow_table_ascending =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun k -> `Fresh k) (int_range 1 4));
          (1, return `Fresh_big);
          (3, map (fun k -> `Release k) nat);
          (2, map (fun k -> `Lower k) nat);
          (1, return `Top);
          (1, return `Miss_then_install);
        ])
  in
  let batch = QCheck.Gen.(list_size (int_range 1 40) op) in
  QCheck.Test.make ~name:"flow table ascending installs" ~count:40
    (QCheck.make
       ~print:(fun bs ->
         Printf.sprintf "%d batches, %d ops" (List.length bs)
           (List.fold_left (fun n b -> n + List.length b) 0 bs))
       QCheck.Gen.(list_size (int_range 20 80) batch))
    (fun batches ->
      let t = Ft.create ~gap:0.5 () in
      (* each live flow's slot *)
      let m : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let top = ref (-1) and peak = ref 0 and recycled = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let install flow =
        let s = Ft.add t ~flow in
        expect (s >= 0);
        Hashtbl.replace m flow s;
        if flow > !top then top := flow;
        peak := max !peak (Hashtbl.length m)
      in
      (* an id in [0, top] *)
      let below k = if !top < 0 then 0 else k mod (!top + 1) in
      let step = function
        | `Fresh k -> install (!top + k)
        | `Fresh_big -> install (!top + 1 + ((!top + 7) * 1_000_003 land 0xffff))
        | `Release k ->
          let flow = below k in
          let s = Ft.find t flow in
          expect ((s >= 0) = Hashtbl.mem m flow);
          expect (Ft.release t ~flow = s);
          if s >= 0 then incr recycled;
          Hashtbl.remove m flow;
          expect (Ft.find t flow = -1)
        | `Lower k -> install (below k)
        | `Top -> if !top >= 0 then install !top
        | `Miss_then_install ->
          let flow = !top + 1 in
          expect (Ft.find t flow = -1);
          install flow;
          expect (Ft.find t flow = Hashtbl.find m flow)
      in
      List.iter
        (fun b ->
          List.iter step b;
          let order = ref [] in
          (* [iter] reads each slot's stored flow id *)
          Ft.iter t (fun flow slot ->
              order := (flow, slot, slot = Ft.find t flow) :: !order);
          expect
            (!order
            = Hashtbl.fold (fun flow s acc -> (flow, s, true) :: acc) m []);
          for flow = 0 to min !top 300 do
            expect ((Ft.find t flow >= 0) = Hashtbl.mem m flow)
          done;
          expect
            (Ft.live t = Hashtbl.length m
            && Ft.peak t = !peak && Ft.recycled t = !recycled))
        batches;
      !ok)

(* Paged growth: three to five full pages of live slots (1024 slots a
   page) ramped in, then batches of releases, installs (of a fresh id,
   into a freed slot, or a reinstall), flag and port writes and flowlet
   pins.  A stdlib [Hashtbl] created at 16 buckets, holding each flow's
   slot and [ft_model] record, with the free list modelled as a stack,
   gives after every batch each flow's slot, fields and pin, the order
   {!Ft.iter} must follow, and the slot each install must take. *)
let prop_flow_table_pages =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun k -> `Release k) nat);
          (2, map (fun k -> `Install k) nat);
          (2, return `Fresh);
          (2, map2 (fun k b -> `Flag (k, b)) nat nat);
          (2, map2 (fun k a -> `Ports (k, a)) nat (int_range (-1) 5000));
          (2, map2 (fun k r -> `Pin (k, r)) nat (int_range (-1) 40));
        ])
  in
  QCheck.Test.make ~name:"flow table paged growth" ~count:6
    (QCheck.make
       ~print:(fun (pages, bs) ->
         Printf.sprintf "%d pages, %d batches, %d ops" pages (List.length bs)
           (List.fold_left (fun n b -> n + List.length b) 0 bs))
       QCheck.Gen.(
         pair (int_range 3 5)
           (list_size (int_range 4 10) (list_size (int_range 50 600) op))))
    (fun (pages, batches) ->
      let gap = 0.5 in
      let t = Ft.create ~gap () in
      let m : (int, int * ft_model) Hashtbl.t = Hashtbl.create 16 in
      let free = ref [] and next = ref 0 and top = ref (-1) in
      let now = ref 0. and peak = ref 0 and recycled = ref 0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let flags = Array.of_list ft_flags in
      let install flow =
        let ((dp, rp) as ports) = ((flow mod 5) - 1, (flow mod 89) - 1) in
        let s = ft_install t ~flow ~data_port:dp ~req_port:rp in
        let slot, pin =
          match Hashtbl.find_opt m flow with
          | Some (slot, e) -> (slot, e.m_pin) (* reinstall: slot and pin kept *)
          | None -> (
            match !free with
            | s :: rest ->
              free := rest;
              (s, None)
            | [] ->
              incr next;
              (!next - 1, None))
        in
        expect (s = slot);
        Hashtbl.replace m flow
          ( slot,
            {
              m_ports = ports;
              m_flags = Array.make (Array.length flags) false;
              m_pin = pin;
            } );
        if flow > !top then top := flow;
        peak := max !peak (Hashtbl.length m)
      in
      (* an id in [0, top], or in [0, top + 1] with [extra] 1 *)
      let pick k extra = k mod (!top + 1 + extra) in
      let step = function
        | `Release k -> (
          let flow = pick k 0 in
          let s = Ft.release t ~flow in
          match Hashtbl.find_opt m flow with
          | Some (slot, _) ->
            expect (s = slot);
            free := s :: !free;
            incr recycled;
            Hashtbl.remove m flow
          | None -> expect (s = -1))
        | `Install k -> install (pick k 1)
        | `Fresh -> install (!top + 1)
        | `Flag (k, b) -> (
          match Hashtbl.find_opt m (pick k 0) with
          | Some (slot, e) ->
            let i = b mod Array.length flags and v = b land 8 = 0 in
            let _, _, set = flags.(i) in
            set t slot v;
            e.m_flags.(i) <- v
          | None -> ())
        | `Ports (k, a) -> (
          let flow = pick k 0 in
          match Hashtbl.find_opt m flow with
          | Some (slot, e) ->
            Ft.set_ports t slot ~data_port:(a mod 7) ~req_port:a;
            e.m_ports <- (a mod 7, a)
          | None -> ())
        | `Pin (k, r) -> (
          match Hashtbl.find_opt m (pick k 0) with
          | Some (slot, e) ->
            (* odd [r] stays within the flowlet gap, even steps past it *)
            (now := !now +. if r land 1 = 0 then gap +. 0.25 else gap /. 4.);
            let preferred = if r < 0 then Ft.Primary else Ft.Via r in
            let pinned =
              match e.m_pin with
              | Some (route, last) when !now -. last <= gap -> route
              | Some _ | None -> preferred
            in
            e.m_pin <- Some (pinned, !now);
            expect (Ft.flowlet_choose t slot ~now:!now ~preferred = pinned)
          | None -> ())
      in
      let check () =
        let order = ref [] in
        Ft.iter t (fun flow slot -> order := (flow, slot) :: !order);
        expect
          (!order
          = Hashtbl.fold (fun flow (slot, _) acc -> (flow, slot) :: acc) m []);
        for flow = 0 to !top + 1 do
          let s = Ft.find t flow in
          match Hashtbl.find_opt m flow with
          | None -> expect (s = -1)
          | Some (slot, e) ->
            expect
              (s = slot && (Ft.data_port t s, Ft.req_port t s) = e.m_ports);
            Array.iteri
              (fun i (_, get, _) -> expect (get t s = e.m_flags.(i)))
              flags;
            (* a choice at the last packet's own time keeps the pin and
               rewrites the same clock *)
            Option.iter
              (fun (route, last) ->
                expect
                  (Ft.flowlet_choose t s ~now:last ~preferred:Ft.Primary
                  = route))
              e.m_pin
        done;
        expect
          (Ft.live t = Hashtbl.length m
          && Ft.peak t = !peak && Ft.recycled t = !recycled)
      in
      for flow = 0 to (pages * 1024) - 1 do
        install flow
      done;
      check ();
      List.iter
        (fun b ->
          List.iter step b;
          check ())
        batches;
      !ok)

(* ------------------------------------------------------------------ *)
(* Session *)

let test_session_in_order () =
  let s = Inrpp.Session.create ~total_chunks:3 in
  Alcotest.(check int) "needs 0" 0 (Inrpp.Session.next_needed s);
  Alcotest.(check bool) "new" true (Inrpp.Session.receive s 0 = `New);
  Alcotest.(check bool) "dup" true (Inrpp.Session.receive s 0 = `Duplicate);
  ignore (Inrpp.Session.receive s 1);
  ignore (Inrpp.Session.receive s 2);
  Alcotest.(check bool) "complete" true (Inrpp.Session.is_complete s);
  Alcotest.(check int) "next = total" 3 (Inrpp.Session.next_needed s)

let test_session_out_of_order () =
  let s = Inrpp.Session.create ~total_chunks:5 in
  ignore (Inrpp.Session.receive s 3);
  ignore (Inrpp.Session.receive s 1);
  Alcotest.(check int) "still needs 0" 0 (Inrpp.Session.next_needed s);
  Alcotest.(check int) "highest" 3 (Inrpp.Session.highest_received s);
  ignore (Inrpp.Session.receive s 0);
  Alcotest.(check int) "skips received 1" 2 (Inrpp.Session.next_needed s);
  Alcotest.(check int) "count" 3 (Inrpp.Session.received_count s)

let test_session_bounds () =
  let s = Inrpp.Session.create ~total_chunks:2 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Session.receive: chunk 2 outside [0,2)") (fun () ->
      ignore (Inrpp.Session.receive s 2))

(* ------------------------------------------------------------------ *)
(* Rate estimator *)

let test_estimator_converges () =
  let e = Inrpp.Rate_estimator.create ~ti:0.1 ~alpha:0.5 ~capacity:1e6 in
  (* 50 kbit predicted per 0.1 s interval = 500 kbps steady demand *)
  for _ = 1 to 20 do
    for _ = 1 to 5 do
      Inrpp.Rate_estimator.note_request e ~expected_bits:1e4
    done;
    Inrpp.Rate_estimator.tick e
  done;
  check_close "ra converged" 1e3 5e5 (Inrpp.Rate_estimator.anticipated_rate e);
  check_close "ratio" 1e-2 0.5 (Inrpp.Rate_estimator.ratio e)

let test_estimator_transit_counts () =
  let e = Inrpp.Rate_estimator.create ~ti:1. ~alpha:1. ~capacity:1e6 in
  Inrpp.Rate_estimator.note_request e ~expected_bits:3e5;
  Inrpp.Rate_estimator.note_transit e ~bits:2e5;
  Inrpp.Rate_estimator.tick e;
  check_close "both counted" 1e-6 5e5 (Inrpp.Rate_estimator.anticipated_rate e)

let test_estimator_decays () =
  let e = Inrpp.Rate_estimator.create ~ti:1. ~alpha:0.5 ~capacity:1e6 in
  Inrpp.Rate_estimator.note_request e ~expected_bits:1e6;
  Inrpp.Rate_estimator.tick e;
  let first = Inrpp.Rate_estimator.anticipated_rate e in
  Inrpp.Rate_estimator.tick e;
  Inrpp.Rate_estimator.tick e;
  Alcotest.(check bool) "decays toward zero" true
    (Inrpp.Rate_estimator.anticipated_rate e < first /. 2.)

(* Replaying k idle intervals equals k ticks bit for bit, from every r_a
   a long decay passes through: a fresh estimator's 0, a live value,
   the smallest denormal (where alpha = 0.3 gets stuck) and 0 after a
   full decay (alpha = 0.5); and at alpha 0 and 1. *)
let test_estimator_replay_idle () =
  let module E = Inrpp.Rate_estimator in
  let bits x = Int64.bits_of_float x in
  let warmed ~alpha ~noted warm =
    let e = E.create ~ti:0.04 ~alpha ~capacity:1e9 in
    if noted then E.note_request e ~expected_bits:8e4;
    E.tick e;
    for _ = 1 to warm do
      E.tick e
    done;
    e
  in
  let floor_ = Int64.float_of_bits 1L in
  Alcotest.(check int64) "alpha 0.3 sticks at the smallest denormal"
    (bits floor_)
    (bits (E.anticipated_rate (warmed ~alpha:0.3 ~noted:true 3000)));
  Alcotest.(check int64) "alpha 0.5 reaches 0" (bits 0.)
    (bits (E.anticipated_rate (warmed ~alpha:0.5 ~noted:true 3000)));
  List.iter
    (fun alpha ->
      List.iter
        (fun (noted, warm) ->
          List.iter
            (fun k ->
              let replayed = warmed ~alpha ~noted warm
              and ticked = warmed ~alpha ~noted warm in
              E.replay_idle replayed k;
              for _ = 1 to k do
                E.tick ticked
              done;
              let what =
                Printf.sprintf "alpha %g, noted %b, warm %d, k %d" alpha noted
                  warm k
              in
              Alcotest.(check int64) (what ^ ": r_a")
                (bits (E.anticipated_rate ticked))
                (bits (E.anticipated_rate replayed)))
            [ 0; 1; 2; 7; 2500; 10_000 ])
        [ (false, 0); (true, 0); (true, 1); (true, 2100); (true, 3000) ])
    [ 0.; 0.3; 0.5; 1. ];
  let e = warmed ~alpha:0.3 ~noted:true 0 in
  Alcotest.check_raises "negative k"
    (Invalid_argument "Rate_estimator.replay_idle: k < 0") (fun () ->
      E.replay_idle e (-1));
  E.note_transit e ~bits:1.;
  E.replay_idle e 0;
  Alcotest.check_raises "bits noted this interval"
    (Invalid_argument "Rate_estimator.replay_idle: interval not idle")
    (fun () -> E.replay_idle e 1)

(* ------------------------------------------------------------------ *)
(* Phase machine *)

let phase_mk () = Inrpp.Phase.create ~engage:0.95 ~release:0.75

let upd p ~ratio ~detour ~pressure ~drained =
  Inrpp.Phase.update p ~ratio ~detour_usable:detour ~custody_pressure:pressure
    ~custody_drained:drained

let test_phase_push_to_detour () =
  let p = phase_mk () in
  Alcotest.(check bool) "starts in push" true
    (Inrpp.Phase.current p = Inrpp.Phase.Push_data);
  let next = upd p ~ratio:1.0 ~detour:true ~pressure:false ~drained:true in
  Alcotest.(check bool) "engages detour" true (next = Inrpp.Phase.Detour)

let test_phase_push_to_bp_without_detour () =
  let p = phase_mk () in
  let next = upd p ~ratio:1.0 ~detour:false ~pressure:false ~drained:true in
  Alcotest.(check bool) "goes straight to bp" true
    (next = Inrpp.Phase.Backpressure)

let test_phase_hysteresis () =
  let p = phase_mk () in
  ignore (upd p ~ratio:1.0 ~detour:true ~pressure:false ~drained:true);
  (* a ratio between release and engage must NOT flip back *)
  let mid = upd p ~ratio:0.85 ~detour:true ~pressure:false ~drained:true in
  Alcotest.(check bool) "holds detour" true (mid = Inrpp.Phase.Detour);
  let low = upd p ~ratio:0.5 ~detour:true ~pressure:false ~drained:true in
  Alcotest.(check bool) "releases" true (low = Inrpp.Phase.Push_data);
  Alcotest.(check int) "transitions counted" 2 (Inrpp.Phase.transitions p)

let test_phase_detour_to_bp_on_pressure () =
  let p = phase_mk () in
  ignore (upd p ~ratio:1.0 ~detour:true ~pressure:false ~drained:true);
  let next = upd p ~ratio:1.0 ~detour:true ~pressure:true ~drained:false in
  Alcotest.(check bool) "custody pressure escalates" true
    (next = Inrpp.Phase.Backpressure)

let test_phase_bp_recovery () =
  let p = phase_mk () in
  ignore (upd p ~ratio:1.0 ~detour:false ~pressure:true ~drained:false);
  (* still congested, not drained: stay *)
  let still = upd p ~ratio:1.0 ~detour:false ~pressure:false ~drained:false in
  Alcotest.(check bool) "stays in bp" true (still = Inrpp.Phase.Backpressure);
  let back = upd p ~ratio:0.5 ~detour:false ~pressure:false ~drained:true in
  Alcotest.(check bool) "recovers to push" true (back = Inrpp.Phase.Push_data)

(* ------------------------------------------------------------------ *)
(* Detour table *)

let test_detour_table_candidates () =
  let g = Topology.Builders.fig3 () in
  let t = Inrpp.Detour_table.create g in
  let l13 = Option.get (Topology.Graph.find_link g 1 3) in
  (match Topology.Detour.Table.find t l13 with
  | (via, d) :: _ as cs ->
    (* shortest first: the 1-intermediate detour via node 2; the
       2-intermediate 1-0-2-3 fallback follows *)
    Alcotest.(check int) "two candidates" 2 (List.length cs);
    Alcotest.(check int) "deflects to node 2" 2 via;
    Alcotest.(check (list int)) "rejoins at 3" [ 3 ]
      (match d.Topology.Path.nodes with _ :: _ :: rest -> rest | _ -> []);
    Alcotest.(check int) "2 hops" 2 (Topology.Path.hops d);
    Alcotest.(check int) "2 links" 2 (List.length d.Topology.Path.links)
  | [] -> Alcotest.fail "expected candidates");
  Alcotest.(check bool) "has detour" true (Topology.Detour.Table.find t l13 <> [])

let test_detour_table_none_on_line () =
  let g = Topology.Builders.line 3 in
  let t = Inrpp.Detour_table.create g in
  let l = Option.get (Topology.Graph.find_link g 0 1) in
  Alcotest.(check bool) "no detour on a line" false
    (Topology.Detour.Table.find t l <> [])

(* ------------------------------------------------------------------ *)
(* Hot-path allocation and flow-state gates *)

(* Allocation and flow-state gates: each figure is bit-deterministic at
   fixed inputs and frozen here; a run above 1.25x the frozen figure
   fails with the measured one. *)
let gate what figure frozen =
  if figure > 1.25 *. frozen then
    Alcotest.failf "%g %s, frozen %g, bound %g" figure what frozen
      (1.25 *. frozen)

(* The protocol hot path is allocation-free past the packet itself:
   flow lookup is a dense-array read, phase/estimator/queue-limit are
   resolved once per flow, push-data forwarding builds no closures,
   and the interface and engine box no floats.  Gate its minor words
   per forwarded chunk, router, interface and engine included: none. *)
let test_router_handler_alloc_budget () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let cfg = Inrpp.Config.default in
    let eng = Sim.Engine.create () in
    let g =
      Topology.Builders.dumbbell ~access_capacity:1e9
        ~bottleneck_capacity:1e9 1
    in
    let net = Chunksim.Net.create ~queue_bits:1e12 eng g in
    let detours = Inrpp.Detour_table.create g in
    let router = Inrpp.Router.create ~cfg ~net ~node:0 ~detours () in
    let dl = Option.get (Topology.Graph.find_link g 0 1) in
    Inrpp.Router.install_flow router ~flow:0 ~data_link:(Some dl)
      ~req_link:None ();
    Chunksim.Net.set_handler net 1 (fun ~from:_ _ -> ());
    let handle = Inrpp.Router.handler router in
    let p =
      Chunksim.Packet.data ~flow:0 ~idx:0 ~born:0. cfg.Inrpp.Config.chunk_bits
    in
    (* warm up: resolve the flow's hot caches, grow rings past
       steady-state size *)
    for _ = 1 to 1_000 do
      handle ~from:None p;
      Sim.Engine.run eng
    done;
    let rounds = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      handle ~from:None p;
      Sim.Engine.run eng
    done;
    let per_chunk = (Gc.minor_words () -. before) /. float_of_int rounds in
    gate "minor words/chunk" per_chunk 0.0

let ebone = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone

(* Protocol allocation gate: eight bulk flows across EBONE, run without
   and with the overload layer.  1000 chunks a flow keep the packet
   path, not set-up, the bulk of the per-event quotient. *)
let test_protocol_alloc_gate () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let n = Topology.Graph.node_count ebone in
    let specs =
      List.init 8 (fun i ->
          Inrpp.Protocol.flow_spec ~src:(i * 3 mod n)
            ~dst:((i + (n / 2)) mod n) 1000)
    in
    let cfg = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 } in
    List.iter
      (fun (what, overload, frozen) ->
        let before = Gc.minor_words () in
        let r = Inrpp.Protocol.run ~cfg ?overload ~horizon:600. ebone specs in
        let per_event =
          (Gc.minor_words () -. before)
          /. float_of_int r.Inrpp.Protocol.engine_events
        in
        Alcotest.(check int) (what ^ ": every flow completes") 8
          r.Inrpp.Protocol.completed;
        gate (what ^ " minor words/event") per_event frozen)
      [ ("plain", None, 8.23); ("overload", Some Overload.Config.default, 16.70) ]

(* Endpoint allocation gate: the sender's pacing and the receiver's
   re-request timeout run on reusable engine timers and the sender's
   backlog is an int ring, so past the packets an endpoint sends, a
   paced chunk and a timeout arm allocate nothing.  Each figure is the
   minor words per chunk (or per arm) minus those of the packets sent,
   built the way the endpoint builds them. *)
let words_of f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_sender_pacing_alloc () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let cfg = Inrpp.Config.default and n = 10_000 in
    let eng = Sim.Engine.create () and sent = ref 0 in
    let s =
      Inrpp.Sender.create ~cfg ~eng ~flow:0 ~total_chunks:n
        ~pace_rate:(1000. *. cfg.Inrpp.Config.chunk_bits)
        ~transmit:(fun _ -> incr sent)
        ()
    in
    (* one request invites every chunk: the backlog ring grows here *)
    Inrpp.Sender.handle s
      (Chunksim.Packet.request ~flow:0 ~nc:0 ~ack:0 ~ac:(n - 1));
    (* built as the sender builds it *)
    let packet =
      words_of (fun () ->
          Chunksim.Packet.data ~flow:0 ~idx:1 ~born:(Sim.Engine.now eng)
            cfg.Inrpp.Config.chunk_bits)
    in
    let words = words_of (fun () -> Sim.Engine.run eng) in
    Alcotest.(check int) "every chunk paced out" n !sent;
    (* the first chunk left inside [handle]; each chunk arms the pacer *)
    Alcotest.(check int) "one timer event per paced chunk" n
      (Sim.Engine.events_handled eng);
    gate "minor words/paced chunk beyond its packet"
      ((words /. float_of_int (n - 1)) -. packet)
      0.

let test_receiver_timeout_alloc () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let cfg = Inrpp.Config.default and n = 4_000 in
    let eng = Sim.Engine.create () and requests = ref 0 in
    let r =
      Inrpp.Receiver.create ~cfg ~eng ~flow:0 ~total_chunks:(n + 1)
        ~send_request:(fun _ -> incr requests)
        ~on_complete:(fun ~fct -> ignore fct)
        ()
    in
    (* a chunk every half interval: every timeout finds progress and
       re-arms; the deliveries are scheduled before the window *)
    let interval = Inrpp.Config.request_timeout in
    for i = 0 to n - 1 do
      let p =
        Chunksim.Packet.data ~flow:0 ~idx:i ~born:0. cfg.Inrpp.Config.chunk_bits
      in
      ignore
        (Sim.Engine.schedule eng
           ~delay:(0.05 +. (float_of_int i *. interval /. 2.))
           (fun () -> Inrpp.Receiver.handle_data r p))
    done;
    let request =
      words_of (fun () -> Chunksim.Packet.request ~flow:0 ~nc:1 ~ack:1 ~ac:9)
    in
    Inrpp.Receiver.start r;
    let sent_at_start = !requests in
    (* the flow never completes: stop at the last delivery *)
    let until = Some (0.05 +. (float_of_int (n - 1) *. interval /. 2.)) in
    let words = words_of (fun () -> Sim.Engine.run ?until eng) in
    let requests = !requests - sent_at_start in
    let arms = Sim.Engine.events_handled eng - n in
    Alcotest.(check bool) "the timeout re-armed throughout" true
      (arms >= n / 2);
    gate "minor words/timeout arm beyond the requests sent"
      ((words -. (float_of_int requests *. request)) /. float_of_int arms)
      0.;
    (* barren firings: no data ever arrives, so every timeout consults
       the breaker, re-requests and re-arms *)
    let eng = Sim.Engine.create () and requests = ref 0 in
    let r =
      Inrpp.Receiver.create ~cfg ~eng ~flow:0 ~total_chunks:n
        ~send_request:(fun _ -> incr requests)
        ~on_complete:(fun ~fct -> ignore fct)
        ()
    in
    Inrpp.Receiver.start r;
    (* past the primer's paced requests *)
    Sim.Engine.run ~until:(interval /. 2.) eng;
    let sent_before = !requests
    and fired_before = Sim.Engine.events_handled eng in
    let until = Some (interval *. 1000.5) in
    let words = words_of (fun () -> Sim.Engine.run ?until eng) in
    let firings = Sim.Engine.events_handled eng - fired_before in
    Alcotest.(check int) "one request per barren firing" firings
      (!requests - sent_before);
    Alcotest.(check int) "a firing per interval" 1000 firings;
    gate "minor words/barren firing beyond its request"
      ((words /. float_of_int firings) -. request)
      0.

(* Flow-state gate: 20k workload flows installed along their shortest
   paths on the EBONE routers, then released.  Bytes per entry is the
   compacted live-heap delta over the installs; the route plans are
   built before the window.  Every entry must be live after the ramp,
   none after release, and every release must recycle its slot.  The
   routers' [flow_table_bytes] must lie within 10% of the measured
   bytes.  And a 250k-flow ramp into one table must allocate under
   1.15x the bytes the table keeps. *)
let test_flow_state_gate () =
  let flows = 20_000 and n = Topology.Graph.node_count ebone in
  let cfg = Inrpp.Config.default in
  let net =
    Chunksim.Net.create ~queue_bits:cfg.Inrpp.Config.queue_bits
      (Sim.Engine.create ()) ebone
  in
  let detours = Inrpp.Detour_table.create ~max_intermediate:2 ebone in
  let routers =
    Array.init n (fun node -> Inrpp.Router.create ~cfg ~net ~node ~detours ())
  in
  let w =
    {
      Workload.Gen.default with
      Workload.Gen.seed = 42L;
      horizon = 3600.;
      max_requests = flows;
      rate = float_of_int flows;
    }
  in
  (* per flow: each path node with its data and request next hops *)
  let trees = Array.init n (Topology.Dijkstra.run ebone) in
  let plan (r : Workload.Request.t) =
    let path =
      Topology.Dijkstra.path_to trees.(r.Workload.Request.src)
        r.Workload.Request.dst
      |> Option.get
    in
    let nodes = Array.of_list path.Topology.Path.nodes in
    let links = Array.of_list path.Topology.Path.links in
    Array.mapi
      (fun k node ->
        ( node,
          (if k < Array.length links then Some links.(k) else None),
          if k > 0 then Topology.Graph.find_link ebone node nodes.(k - 1)
          else None ))
      nodes
  in
  let plans = Array.of_seq (Seq.map plan (Workload.Gen.requests_seq w ebone)) in
  Alcotest.(check int) "workload draws every flow" flows (Array.length plans);
  let entries = Array.fold_left (fun acc p -> acc + Array.length p) 0 plans in
  let total f = Array.fold_left (fun acc r -> acc + f r) 0 routers in
  Gc.compact ();
  let live0 = (Gc.stat ()).Gc.live_words and minor0 = Gc.minor_words () in
  Array.iteri
    (fun flow p ->
      Array.iter
        (fun (node, data_link, req_link) ->
          Inrpp.Router.install_flow routers.(node) ~flow ~data_link
            ~req_link ())
        p)
    plans;
  let minor = Gc.minor_words () -. minor0 in
  Gc.compact ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let approx = total Inrpp.Router.flow_table_bytes in
  Alcotest.(check int) "live after ramp" entries
    (total Inrpp.Router.flow_entries_live);
  Array.iteri
    (fun flow p ->
      Array.iter
        (fun (node, _, _) -> Inrpp.Router.release_flow routers.(node) ~flow)
        p)
    plans;
  Alcotest.(check int) "live after release" 0
    (total Inrpp.Router.flow_entries_live);
  Alcotest.(check int) "recycled" entries
    (total Inrpp.Router.flow_entries_recycled);
  let per_entry = float_of_int entries in
  let bytes = float_of_int (live1 - live0) *. 8. /. per_entry in
  gate "bytes/entry" bytes 18.99;
  (* the tables' own accounting follows the measured heap *)
  let approx = float_of_int approx /. per_entry in
  if Float.abs (approx -. bytes) > 0.1 *. bytes then
    Alcotest.failf "approx_bytes %g B/entry, measured %g" approx bytes;
  if Sys.backend_type = Sys.Native then
    gate "minor words/entry" (minor /. per_entry) 2.4;
  (* growth copies no slot: one table fed 250k ascending flow ids, as
     flows_250k installs them, allocates little beyond what it keeps
     (the first page's doublings, the bucket arrays' and directories'
     old copies), where a doubling slab allocates about twice *)
  let t = Ft.create ~gap:0.5 () in
  let before = Gc.allocated_bytes () in
  for flow = 0 to 249_999 do
    ignore (ft_install t ~flow ~data_port:0 ~req_port:0)
  done;
  let grown = Gc.allocated_bytes () -. before in
  let kept = float_of_int (Ft.approx_bytes t) in
  if grown > 1.15 *. kept then
    Alcotest.failf "ramp allocated %g B for %g B kept, bound 1.15x" grown kept

(* ------------------------------------------------------------------ *)
(* Periodic sweeps: ticks and drains *)

module R = Inrpp.Router

let chunk = Inrpp.Config.default.Inrpp.Config.chunk_bits

(* fig3's node 1 with one flow on the 2 Mbps bottleneck 1->3.  Its
   detours run via node 2 (one hop) and via node 0 (two hops);
   [pressure] is the neighbour custody-occupancy oracle, refused at
   [Overload.Config.neighbor_pressure] (0.85) and above: the tests set
   0 or 1 *)
let fig3_router pressure =
  let g = Topology.Builders.fig3 () in
  let eng = Sim.Engine.create () in
  let net = Chunksim.Net.create ~queue_bits:1e12 eng g in
  let link_state = Topology.Link_state.create g in
  let r =
    R.create ~cfg:Inrpp.Config.default ~net ~node:1
      ~detours:(Inrpp.Detour_table.create g) ~link_state
      ~overload:Overload.Config.default ()
  in
  R.set_neighbor_pressure r (fun n -> pressure.(n));
  let link u v = Option.get (Topology.Graph.find_link g u v) in
  R.install_flow r ~flow:0 ~data_link:(Some (link 1 3))
    ~req_link:(Some (link 1 0)) ();
  (r, link_state, (link 1 3).Topology.Link.id)

let request r nc =
  R.handler r ~from:None (Chunksim.Packet.request ~flow:0 ~nc ~ack:0 ~ac:nc)

(* A probe (tick, back-pressure absorb check, link flip) counts no
   refusal.  A chunk denied every detour by neighbour pressure counts
   exactly one, however many candidates pressure turned away, and a
   held chunk counts one more for every drain round that fails to
   evacuate it. *)
let test_router_refusals_count_requests () =
  (* node 2 pressured: the first candidate is refused, the second stays
     usable, so the interface can sit in detour *)
  let pressure = [| 0.; 0.; 1.; 0. |] in
  let r, ls, bottleneck = fig3_router pressure in
  let refused () = (R.counters r).R.detours_refused in
  for k = 0 to 20 do
    for i = 0 to 9 do
      request r ((10 * k) + i)
    done;
    R.tick r;
    Alcotest.(check bool)
      (Printf.sprintf "held in detour at tick %d" k)
      true
      (R.phase_of_link r bottleneck = Some Inrpp.Phase.Detour)
  done;
  Alcotest.(check int) "21 detour ticks refuse nothing" 0 (refused ());
  pressure.(0) <- 1.;
  Topology.Link_state.set ls bottleneck ~up:false;
  R.on_link_flip r ~up:false;
  Alcotest.(check int) "a link flip refuses nothing" 0 (refused ());
  R.originate_data r (Chunksim.Packet.data ~flow:0 ~idx:0 ~born:0. chunk);
  Alcotest.(check int) "one chunk refused both detours" 1 (refused ());
  Alcotest.(check int) "and went into custody" 1
    (R.counters r).R.custody_stored;
  R.drain r;
  Alcotest.(check int) "its evacuation attempt is one more" 2 (refused ());
  (* flow 1 on 1->0: its detours run via node 2 (pressured) and via
     node 3 (first hop 1->3 down), so with 1->0 down its chunks are
     refused into custody *)
  let l10 =
    (* fig3 is deterministic: link ids match the router's graph *)
    Option.get (Topology.Graph.find_link (Topology.Builders.fig3 ()) 1 0)
  in
  R.install_flow r ~flow:1 ~data_link:(Some l10) ~req_link:None ();
  Topology.Link_state.set ls l10.Topology.Link.id ~up:false;
  R.on_link_flip r ~up:false;
  Alcotest.(check int) "the flip's drain re-attempts flow 0's chunk" 3
    (refused ());
  for idx = 0 to 2 do
    R.originate_data r (Chunksim.Packet.data ~flow:1 ~idx ~born:0. chunk)
  done;
  Alcotest.(check int) "three more chunks refused" 6 (refused ());
  (* back up: flow 1 releases one chunk per round for three rounds and
     the fourth finds nothing, so flow 0's held chunk is refused four
     times in that one drain *)
  Topology.Link_state.set ls l10.Topology.Link.id ~up:true;
  R.on_link_flip r ~up:true;
  Alcotest.(check int) "flow 1 drained" 3 (R.counters r).R.custody_released;
  Alcotest.(check int) "one refusal per round" 10 (refused ());
  R.drain r;
  Alcotest.(check int) "and one per later drain" 11 (refused ())

(* The link-flip decision table, on fig3's node 1 with flow 0 on 1->3
   and flow 1 on 1->0.  A down flip fails a flow over when a detour is
   usable and engages its outage otherwise; an up flip releases the
   outage when the primary or a detour is back and engages nothing.  A
   flow is counted in [failovers] once per fail-over, however many flips
   see it failed over.  Each row is (failovers, bp_engages, bp_releases,
   bp_active_flows) after the flip. *)
let test_router_link_flip_table () =
  let pressure = [| 0.; 0.; 0.; 0. |] in
  let r, ls, l13 = fig3_router pressure in
  let g = Topology.Builders.fig3 () in
  let link u v =
    (Option.get (Topology.Graph.find_link g u v)).Topology.Link.id
  in
  let l10 = link 1 0 and l01 = link 0 1 in
  R.install_flow r ~flow:1
    ~data_link:(Some (Topology.Graph.link g l10)) ~req_link:None ();
  let flip id ~up =
    Topology.Link_state.set ls id ~up;
    R.on_link_flip r ~up
  in
  let row name expect =
    let c = R.counters r in
    Alcotest.(check (list int)) name expect
      [ c.R.failovers; c.R.bp_engages; c.R.bp_releases; R.bp_active_flows r ]
  in
  (* 1: every detour around 1->3 refused by pressure (nodes 0 and 2) *)
  pressure.(0) <- 1.;
  pressure.(2) <- 1.;
  flip l13 ~up:false;
  row "primary down, no detour: outage engaged" [ 0; 1; 0; 0 ];
  (* 2: the detour via node 2 is usable again; both flows fail over,
     and a down flip keeps flow 0's outage engaged *)
  pressure.(2) <- 0.;
  flip l10 ~up:false;
  row "another link down, detour usable: fail-over" [ 2; 1; 0; 0 ];
  (* 3: both flows already failed over *)
  flip l01 ~up:false;
  row "primary down on failed-over flows: counted once" [ 2; 1; 0; 0 ];
  (* 4: no detour left for either flow; an up flip engages nothing *)
  pressure.(2) <- 1.;
  flip l01 ~up:true;
  row "up flip, primary down, no detour: nothing" [ 2; 1; 0; 0 ];
  (* 5: flow 0's primary returns and its outage is released; flow 1
     stays failed over (its detour via node 3 is back) *)
  flip l13 ~up:true;
  row "primary back up: outage released" [ 2; 1; 1; 0 ];
  (* 6: 1->3 down with every detour refused engages both outages; with
     node 2 unpressured, an unrelated down flip fails flow 0 over again
     and keeps both outages, and an up flip releases both *)
  pressure.(0) <- 1.;
  pressure.(3) <- 1.;
  flip l13 ~up:false;
  row "both outages engaged" [ 2; 3; 1; 0 ];
  pressure.(2) <- 0.;
  flip l01 ~up:false;
  row "down flip, detour back: outages kept" [ 3; 3; 1; 0 ];
  flip l01 ~up:true;
  row "up flip, detour back: outages released" [ 3; 3; 3; 0 ]

(* fig3's node 1 with [flows] on 1->3 (data) and 1->0 (requests): the
   primary is down (a flip), and the first hops of both detours, 1->2
   and 1->0, are down at the interface only, as between a crash and the
   flip that reports it.  Every chunk it forwards goes into custody. *)
let exitless_rig flows =
  let g = Topology.Builders.fig3 () in
  let eng = Sim.Engine.create () in
  let net = Chunksim.Net.create ~queue_bits:1e12 eng g in
  let link_state = Topology.Link_state.create g in
  let r =
    R.create ~cfg:Inrpp.Config.default ~net ~node:1
      ~detours:(Inrpp.Detour_table.create g) ~link_state ()
  in
  let link u v = Option.get (Topology.Graph.find_link g u v) in
  List.iter
    (fun flow ->
      R.install_flow r ~flow ~data_link:(Some (link 1 3))
        ~req_link:(Some (link 1 0)) ())
    flows;
  Topology.Link_state.set link_state (link 1 3).Topology.Link.id ~up:false;
  R.on_link_flip r ~up:false;
  List.iter
    (fun (u, v) ->
      Chunksim.Iface.set_down (Chunksim.Net.iface net (link u v).Topology.Link.id))
    [ (1, 2); (1, 0) ];
  r

(* A detour send the interface refuses is no drop: the chunk goes into
   custody, and a drain's evacuation attempt that is refused again
   leaves it there. *)
let test_router_refused_detour_send () =
  let r = exitless_rig [ 0 ] in
  R.originate_data r (Chunksim.Packet.data ~flow:0 ~idx:0 ~born:0. chunk);
  let c = R.counters r in
  Alcotest.(check int) "no drop" 0 c.R.dropped;
  Alcotest.(check int) "no detour" 0 c.R.detoured;
  Alcotest.(check int) "custody stored" 1 c.R.custody_stored;
  R.drain r;
  Alcotest.(check int) "no drop after the drain" 0 c.R.dropped;
  Alcotest.(check int) "nothing released" 0 c.R.custody_released;
  Alcotest.(check (pair int int)) "held in custody" (1, 1) (R.custody_ledger r)

(* A wipe returns every held chunk once, in ascending (flow, idx)
   order, whatever order the store holds them in: flow 0's
   retransmitted idx 2 sits behind its idx 5. *)
let test_router_wipe_list () =
  let r = exitless_rig [ 0; 1 ] in
  List.iter
    (fun (flow, idx) ->
      R.originate_data r (Chunksim.Packet.data ~flow ~idx ~born:0. chunk))
    [ (1, 0); (0, 5); (0, 2); (1, 4) ];
  Alcotest.(check (list (pair int int))) "wiped, ascending"
    [ (0, 2); (0, 5); (1, 0); (1, 4) ]
    (R.crash r ~policy:Wipe_custody);
  Alcotest.(check (pair int int)) "ledger empty" (0, 0) (R.custody_ledger r);
  Alcotest.(check int) "counted" 4 (R.counters r).R.custody_wiped

(* Next hops must leave the router's node.  fig3's node 1 with flow 0
   on 1->3 (data) and 1->0 (requests) refuses a link into node 1 in
   either direction, on an install, a reroute and a reroute of a new
   flow, before writing anything: no entry appears, and flow 0's data
   and requests still leave on their own links. *)
let foreign_hop_rig () =
  let g = Topology.Builders.fig3 () in
  let eng = Sim.Engine.create () in
  let net = Chunksim.Net.create ~queue_bits:1e12 eng g in
  let r =
    R.create ~cfg:Inrpp.Config.default ~net ~node:1
      ~detours:(Inrpp.Detour_table.create g) ()
  in
  let link u v = Option.get (Topology.Graph.find_link g u v) in
  R.install_flow r ~flow:0 ~data_link:(Some (link 1 3))
    ~req_link:(Some (link 1 0)) ();
  let sent u v = Chunksim.Iface.tx_bits (Chunksim.Net.iface net (link u v).id) in
  (r, eng, (fun u v -> Some (link u v)), sent)

let refuses what f =
  Alcotest.check_raises what
    (Invalid_argument "Router: next hop does not leave this node") f

let test_router_refuses_foreign_data_hop () =
  let r, eng, link, sent = foreign_hop_rig () in
  refuses "install" (fun () ->
      R.install_flow r ~flow:1 ~data_link:(link 3 1) ~req_link:None ());
  refuses "reroute" (fun () ->
      R.reroute_flow r ~flow:0 ~data_link:(link 3 1) ~req_link:(link 1 0) ());
  refuses "reroute of a new flow" (fun () ->
      R.reroute_flow r ~flow:2 ~data_link:(link 0 1) ~req_link:None ());
  Alcotest.(check int) "no entry added" 1 (R.flow_entries_live r);
  R.originate_data r (Chunksim.Packet.data ~flow:0 ~idx:0 ~born:0. chunk);
  Sim.Engine.run eng;
  Alcotest.(check (float 0.)) "flow 0's data left on 1->3" chunk (sent 1 3)

let test_router_refuses_foreign_req_hop () =
  let r, eng, link, sent = foreign_hop_rig () in
  refuses "install" (fun () ->
      R.install_flow r ~flow:1 ~data_link:(link 1 3) ~req_link:(link 0 1) ());
  refuses "reroute" (fun () ->
      R.reroute_flow r ~flow:0 ~data_link:(link 1 3) ~req_link:(link 3 1) ());
  refuses "reroute of a new flow" (fun () ->
      R.reroute_flow r ~flow:2 ~data_link:None ~req_link:(link 2 1) ());
  Alcotest.(check int) "no entry added" 1 (R.flow_entries_live r);
  let req = Chunksim.Packet.request ~flow:0 ~nc:0 ~ack:0 ~ac:0 in
  R.handler r ~from:None req;
  Sim.Engine.run eng;
  Alcotest.(check (float 0.)) "flow 0's request left on 1->0"
    (Chunksim.Packet.size req) (sent 1 0)

(* A content key outside [0, 2^31) is refused when the run's keys are
   built, before any router holds them: [Chunk_key.pack] orders a key
   only in that range.  Both ends are kept, and a router holding them
   installs and forwards as fig3's node 1 does without them. *)
let test_router_refuses_wide_content () =
  List.iter
    (fun keys ->
      Alcotest.check_raises
        (Printf.sprintf "keys [%s]"
           (String.concat "; " (List.map string_of_int keys)))
        (Invalid_argument "Router.contents: content outside [0, 2^31)")
        (fun () -> ignore (R.contents (Array.of_list keys))))
    [ [ 0x8000_0000 ]; [ -1 ]; [ 0; 0x7fff_ffff; 0x8000_0000 ];
      [ max_int ]; [ min_int ] ];
  let g = Topology.Builders.fig3 () in
  let eng = Sim.Engine.create () in
  let net = Chunksim.Net.create ~queue_bits:1e12 eng g in
  let r =
    R.create ~cfg:Inrpp.Config.default ~net ~node:1
      ~detours:(Inrpp.Detour_table.create g)
      ~contents:(R.contents [| 0; 0x7fff_ffff |]) ()
  in
  let link u v = Option.get (Topology.Graph.find_link g u v) in
  List.iter
    (fun flow ->
      R.install_flow r ~flow ~data_link:(Some (link 1 3))
        ~req_link:(Some (link 1 0)) ();
      R.originate_data r (Chunksim.Packet.data ~flow ~idx:0 ~born:0. chunk))
    [ 0; 1 ];
  Sim.Engine.run eng;
  Alcotest.(check int) "both flows installed" 2 (R.flow_entries_live r);
  Alcotest.(check (float 0.)) "both chunks left on 1->3" (2. *. chunk)
    (Chunksim.Iface.tx_bits (Chunksim.Net.iface net (link 1 3).id))

(* A drain skips a port it found exitless for the rest of that drain.
   Six flows over two ports of fig3's node 1, behind eight-chunk
   queues, so ports run out of exits part-way through drains and
   neighbour pressure refuses some candidates (node 0 for the first
   five drains).  Every release, with the link it left on, and the
   counters after each drain are pinned; a drain that re-checks every
   port every round gives the same values. *)
let test_router_drain_skip_exact () =
  let g = Topology.Builders.fig3 () in
  let eng = Sim.Engine.create () in
  let net = Chunksim.Net.create ~queue_bits:(8. *. chunk) eng g in
  List.iter (fun n -> Chunksim.Net.set_handler net n (fun ~from:_ _ -> ()))
    [ 0; 2; 3 ];
  let pressure = [| 0.; 0.; 0.; 0. |] in
  let overload = Overload.Config.default in
  let tr = Chunksim.Trace.create () in
  Chunksim.Trace.set_lifecycle tr true;
  let r =
    R.create ~cfg:Inrpp.Config.default ~net ~node:1
      ~detours:(Inrpp.Detour_table.create g)
      ~link_state:(Topology.Link_state.create g) ~overload ~trace:tr ()
  in
  R.set_neighbor_pressure r (fun n -> pressure.(n));
  let link u v = Option.get (Topology.Graph.find_link g u v) in
  for f = 0 to 5 do
    R.install_flow r ~flow:f
      ~data_link:(Some (if f < 3 then link 1 3 else link 1 2))
      ~req_link:None ()
  done;
  for idx = 0 to 9 do
    for f = 0 to 5 do
      R.originate_data r (Chunksim.Packet.data ~flow:f ~idx ~born:0. chunk)
    done
  done;
  pressure.(0) <- 1.;
  let log = Buffer.create 256 in
  Chunksim.Trace.on_record tr (fun _ -> function
    | Chunksim.Trace.Custody_released { flow; idx; _ } ->
      Printf.bprintf log " %d.%d" flow idx
    | Chunksim.Trace.Enqueued { link; _ } -> Printf.bprintf log ">%d" link
    | _ -> ());
  let steps =
    List.init 8 (fun k ->
        Sim.Engine.run ~until:(0.02 *. float_of_int (k + 1)) eng;
        if k = 4 then pressure.(0) <- 0.;
        R.drain r;
        let c = R.counters r in
        Printf.sprintf "%d/%d" c.R.custody_released c.R.detours_refused)
  in
  Alcotest.(check (list string)) "released/refused after each drain"
    [ "0/6"; "0/12"; "0/18"; "1/29"; "7/29"; "10/29"; "13/29"; "17/29" ]
    steps;
  Alcotest.(check string) "flow.idx>link of every release"
    " 0.4>8 0.5>8 1.4>1 2.4>1 3.4>1 4.4>1 5.3>1 0.6>8 1.5>1 2.5>1 0.7>8 \
     1.6>1 2.6>1 0.8>8 1.7>1 2.7>1 3.5>1"
    (Buffer.contents log)

(* The custody ledger the protocol checker reads, across every site
   that changes custody: stores, drains, reroutes, teardown, link flips
   and crashes under both policies.  Four flows over two ports of fig3's
   node 1 behind two-chunk queues; neighbour pressure toggles, so both
   stores and drains meet detours refused.  After every step the packet
   table must hold what the store's backlog over [custody_flows] says,
   and every chunk ever stored must be released, held, wiped, or
   stripped by a teardown (counted here from the backlog just before
   it). *)
let prop_custody_ledger =
  let step =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun f k -> `Store (f, k)) (int_bound 3) (int_range 1 6));
          (3, return `Run);
          (4, return `Drain);
          (1, map (fun f -> `Reroute f) (int_bound 3));
          (1, map (fun f -> `Release f) (int_bound 3));
          (1, map2 (fun k up -> `Flip (k, up)) (int_bound 1) bool);
          (1, return `Pressure);
          (1, map (fun wipe -> `Crash wipe) bool);
        ])
  in
  let print = function
    | `Store (f, k) -> Printf.sprintf "store %d x%d" f k
    | `Run -> "run"
    | `Drain -> "drain"
    | `Reroute f -> Printf.sprintf "reroute %d" f
    | `Release f -> Printf.sprintf "release %d" f
    | `Flip (k, up) -> Printf.sprintf "flip %d %s" k (if up then "up" else "down")
    | `Pressure -> "pressure"
    | `Crash wipe -> if wipe then "crash wipe" else "crash preserve"
  in
  QCheck.Test.make ~name:"custody ledger across every custody site"
    ~count:100
    (QCheck.make ~print:(QCheck.Print.list print)
       QCheck.Gen.(list_size (int_range 1 60) step))
    (fun steps ->
      let g = Topology.Builders.fig3 () in
      let eng = Sim.Engine.create () in
      let net = Chunksim.Net.create ~queue_bits:(2. *. chunk) eng g in
      List.iter
        (fun n -> Chunksim.Net.set_handler net n (fun ~from:_ _ -> ()))
        [ 0; 2; 3 ];
      let ls = Topology.Link_state.create g in
      let pressure = Array.make 4 0. in
      let r =
        R.create ~cfg:Inrpp.Config.default ~net ~node:1
          ~detours:(Inrpp.Detour_table.create g) ~link_state:ls
          ~overload:Overload.Config.default ()
      in
      R.set_neighbor_pressure r (fun n -> pressure.(n));
      let link u v = Option.get (Topology.Graph.find_link g u v) in
      let links = [| link 1 3; link 1 2 |] in
      let on = [| 0; 0; 1; 1 |] (* flow -> its port in [links] *) in
      let install f =
        R.install_flow r ~flow:f ~data_link:(Some links.(on.(f)))
          ~req_link:None ()
      in
      for f = 0 to 3 do install f done;
      let next = Array.make 4 0 and stripped = ref 0 and buf = ref [||] in
      let backlog flow = Chunksim.Cache.custody_backlog (R.cache r) ~flow in
      let ledger () =
        let listed = ref 0 in
        for i = 0 to Chunksim.Cache.custody_flows (R.cache r) buf - 1 do
          listed := !listed + backlog !buf.(i)
        done;
        let c = R.counters r and held = fst (R.custody_ledger r) in
        held = !listed
        && c.R.custody_stored
           = c.R.custody_released + held + c.R.custody_wiped + !stripped
      in
      List.for_all
        (fun s ->
          (match s with
          | `Store (f, k) ->
            for _ = 1 to k do
              R.originate_data r
                (Chunksim.Packet.data ~flow:f ~idx:next.(f) ~born:0. chunk);
              next.(f) <- next.(f) + 1
            done
          | `Run -> Sim.Engine.run ~until:(Sim.Engine.now eng +. 0.05) eng
          | `Drain -> R.drain r
          | `Reroute f ->
            on.(f) <- 1 - on.(f);
            R.reroute_flow r ~flow:f ~data_link:(Some links.(on.(f)))
              ~req_link:None ()
          | `Release f ->
            stripped := !stripped + backlog f;
            R.release_flow r ~flow:f;
            install f
          | `Flip (k, up) ->
            let id = links.(k).Topology.Link.id in
            Topology.Link_state.set ls id ~up;
            R.on_link_flip r ~up
          | `Pressure ->
            List.iter (fun n -> pressure.(n) <- 1. -. pressure.(n)) [ 0; 2; 3 ]
          | `Crash wipe ->
            ignore
              (R.crash r
                 ~policy:(if wipe then Wipe_custody else Preserve_custody)));
          let ok = ledger () in
          (* a crash is checked, then followed by its restart *)
          if R.is_crashed r then R.restart r;
          ok && ledger ())
        steps)

(* The router's tick against the per-interface step it replaced:
   Rate_estimator.tick, then Phase.update fed an eagerly probed
   detour_usable.  Idle intervals, request and transit bursts and
   detour-usability flips are applied to both; r_a (bit for bit), the
   phase and the transition count must agree after every step.  The
   router exposes no interval count, but a skipped tick leaves r_a
   undecayed, so r_a pins it. *)
let prop_tick_matches_full_step =
  let step =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun k -> `Requests k) (int_bound 6));
          (2, map (fun k -> `Transits k) (int_range 1 3));
          (3, return `Idle);
          (1, return `Flip);
        ])
  in
  let show = function
    | `Requests k -> Printf.sprintf "R%d" k
    | `Transits k -> Printf.sprintf "T%d" k
    | `Idle -> "I"
    | `Flip -> "F"
  in
  QCheck.Test.make ~name:"router tick equals the full per-interface step"
    ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map show l))
       QCheck.Gen.(list_size (int_range 1 60) step))
    (fun steps ->
      let pressure = Array.make 4 0. in
      let r, _, bottleneck = fig3_router pressure in
      let est =
        Inrpp.Rate_estimator.create ~ti:Inrpp.Config.ti
          ~alpha:Inrpp.Config.estimator_alpha ~capacity:2e6
      in
      let ph =
        Inrpp.Phase.create ~engage:Inrpp.Config.engage_ratio
          ~release:Inrpp.Config.release_ratio
      in
      let nc = ref 0 in
      let requests k =
        for _ = 1 to k do
          request r !nc;
          incr nc;
          Inrpp.Rate_estimator.note_request est ~expected_bits:chunk
        done
      in
      requests 1;
      List.for_all
        (fun s ->
          (match s with
          | `Requests k -> requests k
          | `Transits k ->
            for _ = 1 to k do
              R.handler r ~from:None
                (Chunksim.Packet.data ~detour_route:[ 3 ] ~flow:0 ~idx:0
                   ~born:0. chunk);
              Inrpp.Rate_estimator.note_transit est ~bits:chunk
            done
          | `Idle -> ()
          | `Flip ->
            let p = if pressure.(0) > 0. then 0. else 1. in
            pressure.(0) <- p;
            pressure.(2) <- p);
          R.tick r;
          Inrpp.Rate_estimator.tick est;
          ignore
            (Inrpp.Phase.update ph
               ~ratio:(Inrpp.Rate_estimator.ratio est)
               ~detour_usable:(pressure.(0) = 0.)
               ~custody_pressure:false ~custody_drained:true);
          (match R.anticipated_rate_of_link r bottleneck with
          | Some ra ->
            Int64.equal (Int64.bits_of_float ra)
              (Int64.bits_of_float (Inrpp.Rate_estimator.anticipated_rate est))
          | None -> false)
          && R.phase_of_link r bottleneck = Some (Inrpp.Phase.current ph)
          && R.phase_transitions r = Inrpp.Phase.transitions ph)
        steps)

(* The same reference step, with the router's lazy decay exercised:
   r_a (bit for bit, through both readers), the phase and the
   transition count are compared only at [Read] steps, so idle runs of
   up to 3000 ticks (past the denormal floor) are replayed in one
   read, and reads land after one or many skipped intervals.  Ticks
   are no-ops while crashed; a crash clears the estimator and the
   phase (a second crash changes nothing), and notes may recreate the
   estimator before the restart.
   Every case opens with an idle stretch before the estimator exists. *)
let prop_lazy_decay_matches_full_step =
  let step =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun k -> `Requests k) (int_bound 6));
          (2, map (fun k -> `Transits k) (int_range 1 3));
          (3, map (fun n -> `Idle n) (int_range 1 40));
          (1, map (fun n -> `Idle n) (int_range 1000 3000));
          (1, return `Flip);
          (3, return `Read);
          (1, return `Crash);
          (1, return `Restart);
        ])
  in
  let show = function
    | `Requests k -> Printf.sprintf "R%d" k
    | `Transits k -> Printf.sprintf "T%d" k
    | `Idle n -> Printf.sprintf "I%d" n
    | `Flip -> "F"
    | `Read -> "?"
    | `Crash -> "C"
    | `Restart -> "S"
  in
  QCheck.Test.make ~name:"lazy decay equals the full per-interface step"
    ~count:200
    (QCheck.make
       ~print:(fun (n, l) ->
         Printf.sprintf "I%d %s" n (String.concat " " (List.map show l)))
       QCheck.Gen.(pair (int_bound 3000) (list_size (int_range 1 60) step)))
    (fun (idle, steps) ->
      let module E = Inrpp.Rate_estimator in
      let pressure = Array.make 4 0. in
      let r, _, bottleneck = fig3_router pressure in
      let est = ref None and ph = ref None and crashed = ref false in
      let note f =
        let e =
          match !est with
          | Some e -> e
          | None ->
            let e =
              E.create ~ti:Inrpp.Config.ti ~alpha:Inrpp.Config.estimator_alpha
                ~capacity:2e6
            in
            est := Some e;
            e
        in
        f e
      in
      let tick () =
        R.tick r;
        match !est with
        | Some e when not !crashed ->
          E.tick e;
          let p =
            match !ph with
            | Some p -> p
            | None ->
              let p =
                Inrpp.Phase.create ~engage:Inrpp.Config.engage_ratio
                  ~release:Inrpp.Config.release_ratio
              in
              ph := Some p;
              p
          in
          ignore
            (Inrpp.Phase.update p ~ratio:(E.ratio e)
               ~detour_usable:(pressure.(0) = 0.)
               ~custody_pressure:false ~custody_drained:true)
        | Some _ | None -> ()
      in
      let same_bits a b =
        match (a, b) with
        | Some x, Some y ->
          Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      let read () =
        same_bits
          (R.anticipated_rate_of_link r bottleneck)
          (Option.map E.anticipated_rate !est)
        && same_bits (R.ratio_of_link r bottleneck) (Option.map E.ratio !est)
        && R.phase_of_link r bottleneck
           = Option.map Inrpp.Phase.current !ph
        && R.phase_transitions r
           = Option.fold ~none:0 ~some:Inrpp.Phase.transitions !ph
      in
      let nc = ref 0 in
      for _ = 1 to idle do
        tick ()
      done;
      List.for_all
        (fun s ->
          match s with
          | `Requests k ->
            for _ = 1 to k do
              request r !nc;
              incr nc;
              note (E.note_request ~expected_bits:chunk)
            done;
            tick ();
            true
          | `Transits k ->
            for _ = 1 to k do
              R.handler r ~from:None
                (Chunksim.Packet.data ~detour_route:[ 3 ] ~flow:0 ~idx:0
                   ~born:0. chunk);
              note (E.note_transit ~bits:chunk)
            done;
            tick ();
            true
          | `Idle n ->
            for _ = 1 to n do
              tick ()
            done;
            true
          | `Flip ->
            let p = if pressure.(0) > 0. then 0. else 1. in
            pressure.(0) <- p;
            pressure.(2) <- p;
            tick ();
            true
          | `Read -> read ()
          | `Crash ->
            (* a crash while crashed changes nothing *)
            ignore (R.crash r ~policy:Preserve_custody);
            if not !crashed then begin
              est := None;
              ph := None;
              crashed := true
            end;
            true
          | `Restart ->
            R.restart r;
            crashed := false;
            true)
        steps
      && read ())

(* Estimators appear on first use and phases on the first tick (or the
   first forwarded chunk); a crash clears both.  The sampler's probes
   observe these instants, so they are pinned step by step. *)
let test_router_port_creation () =
  let g = Topology.Builders.line ~capacity:1e9 3 in
  let eng = Sim.Engine.create () in
  let net = Chunksim.Net.create ~queue_bits:1e12 eng g in
  let r =
    R.create ~cfg:Inrpp.Config.default ~net ~node:1
      ~detours:(Inrpp.Detour_table.create g) ()
  in
  let link u v = Option.get (Topology.Graph.find_link g u v) in
  let down = (link 1 2).Topology.Link.id and up = (link 1 0).Topology.Link.id in
  R.install_flow r ~flow:0 ~data_link:(Some (link 1 2))
    ~req_link:(Some (link 1 0)) ();
  let phase_t =
    Alcotest.testable
      (fun ppf p -> Format.pp_print_string ppf (Chunksim.Trace.phase_name p))
      ( = )
  in
  let expect msg links phase =
    Alcotest.(check (list int)) (msg ^ ": estimator links") links
      (R.estimator_links r);
    Alcotest.(check (option phase_t)) (msg ^ ": data-link phase") phase
      (R.phase_of_link r down);
    Alcotest.(check (option phase_t)) (msg ^ ": request-link phase") None
      (R.phase_of_link r up)
  in
  expect "fresh" [] None;
  Alcotest.(check (option phase_t)) "a link into the node has no phase" None
    (R.phase_of_link r (link 0 1).Topology.Link.id);
  R.tick r;
  expect "tick with no estimator" [] None;
  request r 0;
  expect "after the first request" [ down ] None;
  R.tick r;
  expect "after the first tick" [ down ] (Some Inrpp.Phase.Push_data);
  ignore (R.crash r ~policy:Preserve_custody);
  expect "crashed" [] None;
  R.tick r;
  R.restart r;
  expect "restarted" [] None;
  R.originate_data r (Chunksim.Packet.data ~flow:0 ~idx:0 ~born:0. chunk);
  expect "a forwarded chunk" [] (Some Inrpp.Phase.Push_data);
  R.tick r;
  expect "tick after the chunk" [] (Some Inrpp.Phase.Push_data);
  request r 1;
  expect "request after restart" [ down ] (Some Inrpp.Phase.Push_data)

(* A reinstall clears the entry's flags, so an engaged bp_local leaves
   the router's engage count with it.  Node 1 of a three-node line
   with a store smaller than one chunk: a chunk for its down primary
   (a line has no detour) is refused as full and engages.  After two
   reinstalls the drains owe no release and the router leaves the
   drain list; a fresh engage is then released exactly once. *)
let test_router_reinstall_bp_local () =
  let g = Topology.Builders.line ~capacity:1e9 3 in
  let net = Chunksim.Net.create ~queue_bits:1e12 (Sim.Engine.create ()) g in
  let link_state = Topology.Link_state.create g in
  let registry = R.registry ~nodes:3 in
  let cfg =
    { Inrpp.Config.default with Inrpp.Config.cache_bits = 0.5 *. chunk }
  in
  let detours = Inrpp.Detour_table.create g in
  let routers =
    Array.init 3 (fun node ->
        R.create ~cfg ~net ~node ~detours ~link_state ~registry ())
  in
  let r = routers.(1) in
  let link u v = Option.get (Topology.Graph.find_link g u v) in
  let install () =
    R.install_flow r ~flow:0 ~data_link:(Some (link 1 2))
      ~req_link:(Some (link 1 0)) ()
  in
  let engage idx =
    R.originate_data r (Chunksim.Packet.data ~flow:0 ~idx ~born:0. chunk)
  in
  let listed () =
    let n = ref 0 in
    R.iter_custody registry routers (fun _ -> incr n);
    !n
  in
  let count what field expected =
    Alcotest.(check int) what expected (field (R.counters r))
  in
  install ();
  Topology.Link_state.set link_state (link 1 2).Topology.Link.id ~up:false;
  engage 0;
  count "engaged" (fun c -> c.R.bp_engages) 1;
  Alcotest.(check int) "listed for drains" 1 (listed ());
  install ();
  install ();
  Alcotest.(check int) "reinstall clears the flag" 0 (R.bp_active_flows r);
  R.drain_sweep registry routers;
  count "no release owed" (fun c -> c.R.bp_releases) 0;
  Alcotest.(check int) "off the drain list" 0 (listed ());
  engage 1;
  count "engaged again" (fun c -> c.R.bp_engages) 2;
  R.drain_sweep registry routers;
  count "released once" (fun c -> c.R.bp_releases) 1;
  Alcotest.(check int) "off the drain list again" 0 (listed ())

(* Drain registry exactness.  Two copies of a four-node line carry
   flows 0-2 from node 0 to node 3 and run the same script.  In one
   the routers share a registry and drain through [R.drain_sweep]; in
   the other each router is its own registry and every router is
   drained, as before the registry existed.  After every step both
   must show the same custody stores, releases and back-pressure
   signals in the same order, the same upstream back-pressure packets
   at the producer, and the same counters. *)
type drain_world = {
  dw_eng : Sim.Engine.t;
  dw_ls : Topology.Link_state.t;
  dw_link : int -> int -> Topology.Link.t;
  dw_routers : R.t array;
  dw_next : int array;  (* next chunk index per flow *)
  dw_log : Buffer.t;
  dw_drain : unit -> unit;
}

let drain_world ~cfg ~registry =
  let g = Topology.Builders.line ~capacity:1e8 4 in
  let eng = Sim.Engine.create () in
  let net = Chunksim.Net.create ~queue_bits:(4. *. chunk) eng g in
  let ls = Topology.Link_state.create g in
  let tr = Chunksim.Trace.create () in
  let log = Buffer.create 4096 in
  let sign engage = if engage then '+' else '-' in
  Chunksim.Trace.on_record tr (fun _ -> function
    | Chunksim.Trace.Cached { node; flow; idx } ->
      Printf.bprintf log " in%d.%d.%d" node flow idx
    | Chunksim.Trace.Custody_released { node; flow; idx } ->
      Printf.bprintf log " out%d.%d.%d" node flow idx
    | Chunksim.Trace.Bp_signal { node; flow; engage } ->
      Printf.bprintf log " bp%d.%d%c" node flow (sign engage)
    | _ -> ());
  let reg = if registry then Some (R.registry ~nodes:4) else None in
  let detours = Inrpp.Detour_table.create g in
  let routers =
    Array.init 4 (fun node ->
        R.create ~cfg ~net ~node ~detours ~link_state:ls ~trace:tr
          ?registry:reg ())
  in
  let link u v = Option.get (Topology.Graph.find_link g u v) in
  Array.iteri
    (fun node r ->
      Chunksim.Net.set_handler net node (R.handler r);
      for flow = 0 to 2 do
        R.install_flow r ~flow
          ~data_link:(if node < 3 then Some (link node (node + 1)) else None)
          ~req_link:(if node > 0 then Some (link node (node - 1)) else None)
          ()
      done)
    routers;
  R.set_local_consumer routers.(3) ignore;
  R.set_local_producer routers.(0) (fun p ->
      match p with
      | Chunksim.Packet.Backpressure { flow; engage } ->
        Printf.bprintf log " up%d%c" flow (sign engage)
      | Chunksim.Packet.Data _ | Chunksim.Packet.Request _ -> ());
  {
    dw_eng = eng;
    dw_ls = ls;
    dw_link = link;
    dw_routers = routers;
    dw_next = Array.make 3 0;
    dw_log = log;
    dw_drain =
      (match reg with
      | Some reg -> fun () -> R.drain_sweep reg routers
      | None -> fun () -> Array.iter R.drain routers);
  }

let drain_state w =
  let counters r =
    let c = R.counters r in
    Printf.sprintf " [%d %d %d %d %d %d %d %d]" c.R.custody_stored
      c.R.custody_released c.R.dropped c.R.bp_engages c.R.bp_releases
      c.R.custody_wiped c.R.detours_refused (fst (R.custody_ledger r))
  in
  Buffer.contents w.dw_log
  ^ String.concat "" (Array.to_list (Array.map counters w.dw_routers))

let originate node flow n w =
  for _ = 1 to n do
    R.originate_data w.dw_routers.(node)
      (Chunksim.Packet.data ~flow ~idx:w.dw_next.(flow) ~born:0. chunk);
    w.dw_next.(flow) <- w.dw_next.(flow) + 1
  done

let run_for dt w =
  Sim.Engine.run ~until:(Sim.Engine.now w.dw_eng +. dt) w.dw_eng

let drain_once w = w.dw_drain ()

let flip u v ~up w =
  let id = (w.dw_link u v).Topology.Link.id in
  Topology.Link_state.set w.dw_ls id ~up;
  Array.iter (fun r -> R.on_link_flip r ~up) w.dw_routers

(* Runs [script] on both copies, comparing them after every step, and
   returns the registry copy. *)
let drain_twins ~cfg script =
  let reg = drain_world ~cfg ~registry:true
  and all = drain_world ~cfg ~registry:false in
  let n = ref 0 in
  let step what f =
    incr n;
    f reg;
    f all;
    Alcotest.(check string)
      (Printf.sprintf "step %d (%s)" !n what)
      (drain_state all) (drain_state reg)
  in
  (* a millisecond of transmission, then a drain, [k] times *)
  let settle k =
    for _ = 1 to k do
      step "run" (run_for 1e-3);
      step "drain" drain_once
    done
  in
  script step settle;
  reg

let custody_now w =
  Array.fold_left (fun acc r -> acc + fst (R.custody_ledger r)) 0 w.dw_routers

let drain_cfg =
  { Inrpp.Config.default with Inrpp.Config.cache_bits = 20. *. chunk }

let test_registry_drain_refill () =
  let w =
    drain_twins ~cfg:drain_cfg (fun step settle ->
        for round = 1 to 2 do
          let what = Printf.sprintf "fill %d" round in
          step what (originate 1 0 10);
          step what (originate 1 1 10);
          step what (originate 2 2 8);
          settle 40
        done)
  in
  let c = R.counters w.dw_routers.(1) in
  Alcotest.(check bool) "custody filled twice" true (c.R.custody_stored > 20);
  Alcotest.(check bool) "back-pressure engaged and released" true
    (c.R.bp_engages > 0 && c.R.bp_releases = c.R.bp_engages);
  Alcotest.(check int) "custody drained" 0 (custody_now w)

(* A store smaller than one chunk refuses every chunk as full: the
   router engages back-pressure while its custody stays empty, and the
   next drain (below the low watermark) releases it upstream.  An
   engage made while crashed waits for the first drain after the
   restart. *)
let test_registry_drain_bp_only () =
  let w =
    drain_twins
      ~cfg:{ drain_cfg with Inrpp.Config.cache_bits = 0.5 *. chunk }
      (fun step settle ->
        step "fill" (originate 1 0 6);
        step "fill" (originate 1 1 6);
        settle 3;
        step "crash" (fun w ->
            ignore (R.crash w.dw_routers.(1) ~policy:Preserve_custody));
        step "fill while crashed" (originate 1 0 6);
        settle 3;
        step "restart" (fun w -> R.restart w.dw_routers.(1));
        settle 3)
  in
  let c = R.counters w.dw_routers.(1) in
  Alcotest.(check int) "nothing stored" 0 c.R.custody_stored;
  Alcotest.(check bool) "releases sent upstream" true
    (c.R.bp_releases >= 2 && c.R.bp_releases = c.R.bp_engages);
  let log = Buffer.contents w.dw_log in
  Alcotest.(check bool) "and reached the producer" true
    (List.exists
       (fun i -> String.sub log i 5 = " up0-")
       (List.init (String.length log - 4) Fun.id))

let test_registry_drain_wipe () =
  let w =
    drain_twins ~cfg:drain_cfg (fun step settle ->
        step "fill" (originate 1 0 10);
        step "fill" (originate 2 1 8);
        settle 2;
        step "crash" (fun w ->
            ignore (R.crash w.dw_routers.(1) ~policy:Wipe_custody));
        settle 3;
        step "fill while crashed" (originate 1 2 8);
        settle 2;
        step "restart" (fun w -> R.restart w.dw_routers.(1));
        step "fill" (originate 1 0 8);
        settle 40)
  in
  Alcotest.(check bool) "custody wiped" true
    ((R.counters w.dw_routers.(1)).R.custody_wiped > 0);
  Alcotest.(check int) "custody drained" 0 (custody_now w)

(* A link flip drains every router directly, outside the sweep *)
let test_registry_drain_link_down () =
  let released = ref 0 in
  let w =
    drain_twins ~cfg:drain_cfg (fun step settle ->
        step "fill" (originate 1 0 12);
        step "transmit" (run_for 5e-3);
        step "2->3 down" (fun w ->
            let before = (R.counters w.dw_routers.(1)).R.custody_released in
            flip 2 3 ~up:false w;
            (* the same in both copies *)
            released :=
              (R.counters w.dw_routers.(1)).R.custody_released - before);
        settle 5;
        step "fill" (originate 2 1 4);
        settle 3;
        step "2->3 up" (flip 2 3 ~up:true);
        settle 40)
  in
  Alcotest.(check bool) "the flip's own drain released custody" true
    (!released > 0);
  Alcotest.(check int) "custody drained" 0 (custody_now w)

(* The sampler's estimator series over eight bulk EBONE flows, pinned
   by Digest.  The sampling period (0.9 s) is not a multiple of the
   40 ms estimator interval, so reads land between ticks, 22 or 23
   intervals after the previous read.  Seven flows start in the first
   two seconds and the last at 100 s, so the interfaces the early flows
   used sit idle long enough for r_a to decay to the denormal floor.
   The NDJSON export prints every float so that it parses back to the
   same bits. *)
let test_sampler_estimator_series_pinned () =
  let n = Topology.Graph.node_count ebone in
  let specs =
    List.init 8 (fun i ->
        Inrpp.Protocol.flow_spec
          ~start:(if i = 7 then 100. else 0.3 *. float_of_int i)
          ~src:(i * 3 mod n) ~dst:((i + (n / 2)) mod n) (100 + (50 * i)))
  in
  let o = Obs.Observer.create ~sample_interval:0.9 () in
  let r = Inrpp.Protocol.run ~horizon:600. ~obs:o ebone specs in
  Alcotest.(check int) "every flow completes" 8 r.Inrpp.Protocol.completed;
  let series =
    List.filter
      (fun s ->
        List.mem (Obs.Series.name s)
          [ "iface_anticipated_bps"; "iface_anticipated_ratio"; "iface_phase" ])
      (Obs.Observer.series o)
  in
  Alcotest.(check int) "three series per interface"
    (3 * Topology.Graph.link_count ebone) (List.length series);
  let buf = Buffer.create (1 lsl 20) in
  Obs.Export.series_to_ndjson buf series;
  Alcotest.(check string) "series digest"
    "5d7888b344b615c7d3a96d31f5473538"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* After warm-up every EBONE interface is idle in push-data, and a tick
   sweep allocates nothing.  A drain allocates a bounded amount per
   chunk it releases. *)
let test_router_sweep_alloc_budget () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let cfg = Inrpp.Config.default in
    let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
    let eng = Sim.Engine.create () in
    let net =
      Chunksim.Net.create ~queue_bits:cfg.Inrpp.Config.queue_bits eng g
    in
    let detours = Inrpp.Detour_table.create g in
    let routers =
      Array.init (Topology.Graph.node_count g) (fun node ->
          R.create ~cfg ~net ~node ~detours ())
    in
    (* one request per out-link gives every interface an estimator *)
    let flow = ref 0 in
    Array.iteri
      (fun node r ->
        List.iter
          (fun l ->
            R.install_flow r ~flow:!flow ~data_link:(Some l) ~req_link:None ();
            R.handler r ~from:None
              (Chunksim.Packet.request ~flow:!flow ~nc:0 ~ack:0 ~ac:0);
            incr flow)
          (Topology.Graph.out_links g node))
      routers;
    for _ = 1 to 50 do
      Array.iter R.tick routers
    done;
    Alcotest.(check bool) "every interface back in push-data" true
      (Array.for_all
         (fun r ->
           List.for_all
             (fun id -> R.phase_of_link r id = Some Inrpp.Phase.Push_data)
             (R.estimator_links r))
         routers);
    let before = Gc.minor_words () in
    for _ = 1 to 100 do
      Array.iter R.tick routers
    done;
    Alcotest.(check (float 0.)) "idle sweeps allocate nothing" 0.
      (Gc.minor_words () -. before);
    (* drain: eight flows parked in custody behind a four-chunk queue *)
    let g = Topology.Builders.line ~capacity:1e9 3 in
    let eng = Sim.Engine.create () in
    let net = Chunksim.Net.create ~queue_bits:(4. *. chunk) eng g in
    let r =
      R.create ~cfg ~net ~node:0 ~detours:(Inrpp.Detour_table.create g) ()
    in
    Chunksim.Net.set_handler net 1 (fun ~from:_ _ -> ());
    let l = Topology.Graph.find_link g 0 1 in
    for f = 0 to 7 do
      R.install_flow r ~flow:f ~data_link:l ~req_link:None ()
    done;
    for idx = 0 to 29 do
      for f = 0 to 7 do
        R.originate_data r (Chunksim.Packet.data ~flow:f ~idx ~born:0. chunk)
      done
    done;
    let stored = (R.counters r).R.custody_stored in
    Alcotest.(check bool) "custody holds a backlog" true (stored > 200);
    let words = ref 0. in
    while not (Chunksim.Cache.custody_is_empty (R.cache r)) do
      Sim.Engine.run eng;
      let before = Gc.minor_words () in
      R.drain r;
      words := !words +. (Gc.minor_words () -. before)
    done;
    let per_chunk = !words /. float_of_int (R.counters r).R.custody_released in
    Alcotest.(check int) "every chunk released" stored
      (R.counters r).R.custody_released;
    Alcotest.(check bool)
      (Printf.sprintf "drain allocation per released chunk (%.1f minor words)"
         per_chunk)
      true (per_chunk <= 32.)

(* Drain allocation gate: twelve flows parked in custody behind a full
   two-chunk bottleneck queue with no detour, so every drain finds the
   port exitless at its first flow and skips the rest.  Such a drain
   costs one snapshot of the custody list and one release attempt;
   gate its minor words. *)
let test_drain_alloc_gate () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let g = Topology.Builders.dumbbell ~bottleneck_capacity:1e6 1 in
    let net =
      Chunksim.Net.create ~queue_bits:(2. *. chunk) (Sim.Engine.create ()) g
    in
    let r =
      R.create ~cfg:Inrpp.Config.default ~net ~node:0
        ~detours:(Inrpp.Detour_table.create g) ()
    in
    let l = Topology.Graph.find_link g 0 1 in
    for f = 0 to 11 do
      R.install_flow r ~flow:f ~data_link:l ~req_link:None ()
    done;
    for idx = 0 to 19 do
      for f = 0 to 11 do
        R.originate_data r (Chunksim.Packet.data ~flow:f ~idx ~born:0. chunk)
      done
    done;
    Alcotest.(check int) "chunks in custody" 237 (fst (R.custody_ledger r));
    for _ = 1 to 1_000 do R.drain r done;
    let drains = 100_000 in
    let before = Gc.minor_words () in
    for _ = 1 to drains do R.drain r done;
    let per_drain = (Gc.minor_words () -. before) /. float_of_int drains in
    Alcotest.(check int) "nothing released" 0 (R.counters r).R.custody_released;
    gate "minor words/drain" per_drain 2.0

(* ------------------------------------------------------------------ *)
(* Sender / Receiver unit behaviour *)

let test_sender_paced_push () =
  let eng = Sim.Engine.create () in
  let sent = ref [] in
  let cfg = Inrpp.Config.default in
  let s =
    Inrpp.Sender.create ~cfg ~eng ~flow:0 ~total_chunks:20
      ~pace_rate:(10. *. cfg.Inrpp.Config.chunk_bits) (* 10 chunks/s *)
      ~transmit:(fun p -> sent := (Sim.Engine.now eng, p) :: !sent)
      ()
  in
  (* one request invites chunks 0..4 (ac = 4) into the backlog *)
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:0 ~ack:0 ~ac:4);
  Alcotest.(check int) "first chunk sent immediately" 1 (List.length !sent);
  Alcotest.(check int) "backlog holds the rest" 4 (Inrpp.Sender.backlog s);
  Sim.Engine.run eng;
  Alcotest.(check int) "all invited chunks sent" 5 (List.length !sent);
  Alcotest.(check int) "pushed high-water" 5
    (List.fold_left
       (fun m (_, p) ->
         match p with
         | Chunksim.Packet.Data { idx; _ } -> max m (idx + 1)
         | _ -> m)
       0 !sent);
  (* pacing: consecutive sends are 0.1 s apart *)
  let times = List.rev_map fst !sent in
  let rec gaps = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check (float 1e-9)) "pace gap" 0.1 (b -. a);
      gaps rest
    | _ -> ()
  in
  gaps times

let test_sender_backpressure_mode () =
  let eng = Sim.Engine.create () in
  let sent = ref 0 in
  let cfg = Inrpp.Config.default in
  let s =
    Inrpp.Sender.create ~cfg ~eng ~flow:0 ~total_chunks:100
      ~pace_rate:(100. *. cfg.Inrpp.Config.chunk_bits)
      ~transmit:(fun _ -> incr sent)
      ()
  in
  Inrpp.Sender.handle s (Chunksim.Packet.backpressure ~flow:0 ~engage:true);
  Alcotest.(check bool) "in bp" true (Inrpp.Sender.in_backpressure s);
  (* closed loop: exactly one chunk per request, no anticipation *)
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:0 ~ack:0 ~ac:50);
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:1 ~ack:1 ~ac:51);
  Sim.Engine.run eng;
  Alcotest.(check int) "1-to-1 flow balance" 2 !sent;
  (* release resumes the open loop *)
  Inrpp.Sender.handle s (Chunksim.Packet.backpressure ~flow:0 ~engage:false);
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:2 ~ack:2 ~ac:9);
  Sim.Engine.run eng;
  Alcotest.(check int) "open loop refills to ac" 10 !sent

let test_sender_stall_retransmission () =
  let eng = Sim.Engine.create () in
  let sent = ref [] in
  let cfg = Inrpp.Config.default in
  let s =
    Inrpp.Sender.create ~cfg ~eng ~flow:0 ~total_chunks:10
      ~pace_rate:(1000. *. cfg.Inrpp.Config.chunk_bits)
      ~transmit:(fun p ->
        match p with
        | Chunksim.Packet.Data { idx; _ } -> sent := idx :: !sent
        | _ -> ())
      ()
  in
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:0 ~ack:0 ~ac:5);
  Sim.Engine.run eng;
  let before = List.length !sent in
  (* two repeats are tolerated (reordering)... *)
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:2 ~ack:2 ~ac:5);
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:2 ~ack:2 ~ac:5);
  Sim.Engine.run eng;
  Alcotest.(check int) "no retransmit yet" before (List.length !sent);
  (* ...the third identical Nc is a stall: retransmit chunk 2 *)
  Inrpp.Sender.handle s (Chunksim.Packet.request ~flow:0 ~nc:2 ~ack:2 ~ac:5);
  Sim.Engine.run eng;
  Alcotest.(check int) "retransmitted" (before + 1) (List.length !sent);
  Alcotest.(check int) "the hole chunk" 2 (List.hd !sent)

let test_receiver_flow_balance () =
  let eng = Sim.Engine.create () in
  let requests = ref [] in
  let completed = ref None in
  let cfg = Inrpp.Config.default in
  let r =
    Inrpp.Receiver.create ~cfg ~eng ~flow:0 ~total_chunks:3
      ~send_request:(fun p -> requests := p :: !requests)
      ~on_complete:(fun ~fct -> completed := Some fct)
      ()
  in
  Inrpp.Receiver.start r;
  Alcotest.(check int) "initial request" 1 (List.length !requests);
  (* each arriving chunk triggers exactly one further request *)
  Inrpp.Receiver.handle_data r
    (Chunksim.Packet.data ~flow:0 ~idx:0 ~born:0. cfg.Inrpp.Config.chunk_bits);
  Alcotest.(check int) "one per data" 2 (List.length !requests);
  Inrpp.Receiver.handle_data r
    (Chunksim.Packet.data ~flow:0 ~idx:1 ~born:0. cfg.Inrpp.Config.chunk_bits);
  Inrpp.Receiver.handle_data r
    (Chunksim.Packet.data ~flow:0 ~idx:2 ~born:0. cfg.Inrpp.Config.chunk_bits);
  Alcotest.(check bool) "completed" true (!completed <> None);
  Alcotest.(check int) "duplicates zero" 0 (Inrpp.Receiver.duplicates r);
  (* the last data needs no further request *)
  Alcotest.(check int) "no request after completion" 3 (List.length !requests)

let test_receiver_timeout_rerequests () =
  let eng = Sim.Engine.create () in
  let requests = ref 0 in
  let cfg = Inrpp.Config.default in
  let r =
    Inrpp.Receiver.create ~cfg ~eng ~flow:0 ~total_chunks:5
      ~send_request:(fun _ -> incr requests)
      ~on_complete:(fun ~fct -> ignore fct)
      ()
  in
  Inrpp.Receiver.start r;
  (* nothing ever arrives: the timeout must keep re-asking, six
     [Config.request_timeout] intervals of 0.2 s *)
  Sim.Engine.run ~until:(6. *. Inrpp.Config.request_timeout) eng;
  Alcotest.(check bool)
    (Printf.sprintf "re-requested (%d requests)" !requests)
    true (!requests >= 4)

(* ------------------------------------------------------------------ *)
(* Protocol end-to-end *)

let bulk = { Inrpp.Config.default with Inrpp.Config.anticipation = 512 }

let bottleneck_graph () =
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "0" in
  let n1 = Topology.Graph.Builder.add_node b "1" in
  let n2 = Topology.Graph.Builder.add_node b "2" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  Topology.Graph.Builder.build b

(* a trace whose one tap counts the events [pred] accepts *)
let counting pred =
  let trace = Chunksim.Trace.create () and n = ref 0 in
  Chunksim.Trace.on_record trace (fun _ e -> if pred e then incr n);
  (trace, n)

let test_protocol_clean_line () =
  let g = Topology.Builders.line ~capacity:10e6 ~delay:2e-3 3 in
  let r = Inrpp.Protocol.run ~cfg:bulk g [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ] in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "no drops" 0 r.Inrpp.Protocol.total_drops;
  Alcotest.(check int) "no detours on a line" 0 r.Inrpp.Protocol.detoured;
  (* 200 x 80 kbit at 10 Mbps is 1.6 s; allow protocol overhead *)
  match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
  | Some fct ->
    Alcotest.(check bool)
      (Printf.sprintf "fct %.3f near line rate" fct)
      true
      (fct > 1.5 && fct < 2.0)
  | None -> Alcotest.fail "flow unfinished"

let test_protocol_bottleneck_custody () =
  (* pushing 10 Mbps into a 2 Mbps link: custody absorbs, nothing drops,
     and the transfer finishes at bottleneck pace *)
  let g = bottleneck_graph () in
  let r = Inrpp.Protocol.run ~cfg:bulk g [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ] in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "zero loss despite 5x overload" 0 r.Inrpp.Protocol.total_drops;
  Alcotest.(check bool) "custody used" true (r.Inrpp.Protocol.custody_stored > 0);
  Alcotest.(check bool) "custody bounded by store" true
    (r.Inrpp.Protocol.peak_custody_bits <= bulk.Inrpp.Config.cache_bits);
  match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
  | Some fct ->
    Alcotest.(check bool)
      (Printf.sprintf "fct %.3f near bottleneck pace (8 s ideal)" fct)
      true
      (fct > 7.5 && fct < 10.)
  | None -> Alcotest.fail "flow unfinished"

let test_protocol_backpressure_engages () =
  (* a small store forces the back-pressure phase: the congested router
     must signal upstream and the sender must enter the closed loop *)
  let g = bottleneck_graph () in
  let cfg = { bulk with Inrpp.Config.cache_bits = 20. *. bulk.Inrpp.Config.chunk_bits } in
  let trace, engages =
    counting (function
      | Chunksim.Trace.Bp_signal { engage = true; _ } -> true
      | _ -> false)
  in
  let r =
    Inrpp.Protocol.run ~cfg ~trace g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ]
  in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check bool) "bp engaged" true (r.Inrpp.Protocol.bp_engages > 0);
  Alcotest.(check bool) "bp released" true (r.Inrpp.Protocol.bp_releases > 0);
  Alcotest.(check bool) "bp signal traced" true (!engages > 0)

(* one stream, two consumers: a caller's tap on the run's trace and the
   observer's counter tap count the same events per kind *)
let test_protocol_trace_and_obs () =
  let cfg =
    { bulk with Inrpp.Config.cache_bits = 20. *. bulk.Inrpp.Config.chunk_bits }
  in
  let trace = Chunksim.Trace.create () and tapped = Hashtbl.create 16 in
  Chunksim.Trace.on_record trace (fun _ e ->
      let k = Obs.Trace_codec.kind e in
      Hashtbl.replace tapped k
        (1 + Option.value ~default:0 (Hashtbl.find_opt tapped k)));
  let o = Obs.Observer.create () in
  Obs.Observer.add_sink o (Obs.Sink.counter_tap (Obs.Observer.registry o));
  let r =
    Inrpp.Protocol.run ~cfg ~trace ~obs:o (bottleneck_graph ())
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 200 ]
  in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  let counted =
    List.filter_map
      (fun (s : Obs.Metric.sample) ->
        match (s.name, s.value) with
        | "trace_events_total", Obs.Metric.Counter_v n when n > 0 ->
          Some (List.assoc "kind" s.labels, n)
        | _ -> None)
      (Obs.Observer.snapshot o)
  in
  let tapped = List.of_seq (Hashtbl.to_seq tapped) in
  Alcotest.(check (list (pair string int))) "same events per kind"
    (List.sort compare tapped) (List.sort compare counted);
  Alcotest.(check bool) "bp signals among them" true
    (List.mem_assoc "bp_signal" tapped)

let test_protocol_fig3_detours () =
  let g = Topology.Builders.fig3 () in
  let trace, detoured =
    counting (function Chunksim.Trace.Detoured _ -> true | _ -> false)
  in
  let r =
    Inrpp.Protocol.run ~cfg:bulk ~trace g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300 ]
  in
  Alcotest.(check int) "completes" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check bool) "detour used" true (r.Inrpp.Protocol.detoured > 50);
  (* detour + primary beat the 2 Mbps bottleneck alone: 300 chunks =
     24 Mbit; at 2 Mbps that is 12 s, with detours it must be well under *)
  (match r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct with
  | Some fct ->
    Alcotest.(check bool)
      (Printf.sprintf "fct %.3f beats single-path 12 s" fct)
      true (fct < 9.)
  | None -> Alcotest.fail "flow unfinished");
  Alcotest.(check bool) "detour events traced" true (!detoured > 0)

let test_protocol_phase_transitions_observed () =
  let g = Topology.Builders.fig3 () in
  let trace, entered_detour =
    counting (function
      | Chunksim.Trace.Phase_change { phase = Detour; _ } -> true
      | _ -> false)
  in
  let r =
    Inrpp.Protocol.run ~cfg:bulk ~trace g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 300 ]
  in
  Alcotest.(check bool) "phases changed" true (r.Inrpp.Protocol.phase_transitions > 0);
  Alcotest.(check bool) "detour phase entered" true (!entered_detour > 0)

let test_protocol_two_flows_share () =
  let g = Topology.Builders.fig3 () in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~src:0 ~dst:3 150;
      Inrpp.Protocol.flow_spec ~src:0 ~dst:1 150;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg:bulk g specs in
  Alcotest.(check int) "both complete" 2 r.Inrpp.Protocol.completed;
  let rates =
    Array.map
      (fun fr ->
        match fr.Inrpp.Protocol.fct with
        | Some fct ->
          float_of_int fr.Inrpp.Protocol.chunks_received
          *. bulk.Inrpp.Config.chunk_bits /. fct
        | None -> 0.)
      r.Inrpp.Protocol.flows
  in
  let jain = Metrics.Fairness.jain rates in
  Alcotest.(check bool)
    (Printf.sprintf "fair rates (jain %.3f)" jain)
    true (jain > 0.85)

let test_protocol_icn_cache_hits () =
  (* the same content fetched twice: the repeat is served on path *)
  let g = Topology.Builders.line ~capacity:10e6 ~delay:5e-3 5 in
  let cfg = { bulk with Inrpp.Config.icn_caching = true; cache_bits = 64e6 } in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~content:7 ~src:0 ~dst:4 100;
      Inrpp.Protocol.flow_spec ~content:7 ~start:2. ~src:0 ~dst:4 100;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg g specs in
  Alcotest.(check int) "both complete" 2 r.Inrpp.Protocol.completed;
  Alcotest.(check bool) "cache hits happened" true (r.Inrpp.Protocol.cache_hits > 50);
  match
    ( r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct,
      r.Inrpp.Protocol.flows.(1).Inrpp.Protocol.fct )
  with
  | Some first, Some repeat ->
    Alcotest.(check bool)
      (Printf.sprintf "repeat %.3f much faster than first %.3f" repeat first)
      true
      (repeat < first /. 2.)
  | _ -> Alcotest.fail "flows unfinished"

let test_protocol_icn_cache_off_by_default () =
  let g = Topology.Builders.line ~capacity:10e6 ~delay:5e-3 4 in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~content:7 ~src:0 ~dst:3 50;
      Inrpp.Protocol.flow_spec ~content:7 ~start:1. ~src:0 ~dst:3 50;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg:bulk g specs in
  Alcotest.(check int) "no hits without the flag" 0 r.Inrpp.Protocol.cache_hits

(* A content key reaches the nodes a reroute installs.  Flow 0 (0 -> 3)
   runs on 0-1-3 until 1-3 goes down at 0.3 s; reconvergence moves it
   onto 0-2-3, so node 2 holds its entry only through
   [Router.reroute_flow].  Flow 1 (0 -> 4, on 0-2-4) starts after flow
   0 has finished.  With the same content its requests hit the copies
   flow 0 left at node 2; with another content it hits no chunk past
   0 anywhere (the receiver's priming requests repeat chunk 0, and a
   repeat finds the first one's copy).  Ac = 0 keeps the sender from
   pushing chunks ahead of the requests, whose copies would answer
   them too. *)
let test_protocol_icn_content_across_reroute () =
  let module B = Topology.Graph.Builder in
  let b = B.create () in
  let n = Array.init 5 (fun i -> B.add_node b (string_of_int i)) in
  let edge u v delay = B.add_edge b ~capacity:10e6 ~delay n.(u) n.(v) in
  edge 0 1 1e-3;
  edge 1 3 1e-3;
  edge 0 2 2e-3;
  edge 2 3 2e-3;
  edge 2 4 1e-3;
  let g = B.build b in
  let down u v =
    let l = Option.get (Topology.Graph.find_link g u v) in
    Fault.Schedule.
      { at = 0.3;
        event = Link_down { link = l.Topology.Link.id; policy = `Hold_queued } }
  in
  let faults = Fault.Schedule.of_list [ down 1 3; down 3 1 ] in
  let cfg =
    { Inrpp.Config.default with
      Inrpp.Config.anticipation = 0; icn_caching = true; cache_bits = 64e6 }
  in
  (* flow 1's hits, as (node, idx) *)
  let run second =
    let trace = Chunksim.Trace.create () and hits = ref [] in
    Chunksim.Trace.on_record trace (fun _ e ->
        match e with
        | Chunksim.Trace.Cache_hit { node; flow = 1; idx } ->
          hits := (node, idx) :: !hits
        | _ -> ());
    let r =
      Inrpp.Protocol.run ~cfg ~horizon:60. ~faults ~trace g
        [
          Inrpp.Protocol.flow_spec ~content:7 ~src:0 ~dst:3 200;
          Inrpp.Protocol.flow_spec ~content:second ~start:8. ~src:0 ~dst:4 100;
        ]
    in
    Alcotest.(check int) "both complete" 2 r.Inrpp.Protocol.completed;
    !hits
  in
  let at_2 = List.length (List.filter (fun (node, _) -> node = 2) (run 7)) in
  Alcotest.(check bool)
    (Printf.sprintf "flow 1 hits at node 2 (%d)" at_2)
    true (at_2 > 50);
  Alcotest.(check int) "another content: no hit past chunk 0" 0
    (List.length (List.filter (fun (_, idx) -> idx > 0) (run 8)))

let test_protocol_drr_runs () =
  let g = Topology.Builders.fig3 () in
  let cfg = { bulk with Inrpp.Config.drr_scheduler = true } in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~src:0 ~dst:3 150;
      Inrpp.Protocol.flow_spec ~src:0 ~dst:1 150;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg g specs in
  Alcotest.(check int) "both complete under DRR" 2 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "no drops" 0 r.Inrpp.Protocol.total_drops

let test_protocol_recovers_from_wire_loss () =
  let g = Topology.Builders.line ~capacity:10e6 ~delay:2e-3 4 in
  let r =
    Inrpp.Protocol.run ~cfg:bulk ~loss_rate:0.02 ~horizon:120. g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 150 ]
  in
  Alcotest.(check int) "completes despite 2% loss" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "every chunk delivered" 150
    r.Inrpp.Protocol.flows.(0).Inrpp.Protocol.chunks_received

let test_protocol_loss_is_deterministic () =
  let g = Topology.Builders.line ~capacity:10e6 ~delay:2e-3 4 in
  let run () =
    Inrpp.Protocol.run ~cfg:bulk ~loss_rate:0.03 ~horizon:120. g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 100 ]
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same fct under same loss seed" true
    (a.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct
    = b.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct)

let test_protocol_isp_multi_flow () =
  (* integration: three concurrent transfers across the VSNL ISP graph
     all complete losslessly *)
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Vsnl in
  let n = Topology.Graph.node_count g in
  let cfg =
    {
      bulk with
      Inrpp.Config.chunk_bits = 80e3;
      cache_bits = 100e6;
      queue_bits = 64. *. 80e3;
    }
  in
  let specs =
    [
      Inrpp.Protocol.flow_spec ~src:(n - 4) ~dst:(n - 1) 150;
      Inrpp.Protocol.flow_spec ~src:(n - 4) ~dst:(n - 2) 150;
      Inrpp.Protocol.flow_spec ~src:0 ~dst:(n - 3) 150;
    ]
  in
  let r = Inrpp.Protocol.run ~cfg ~horizon:30. g specs in
  Alcotest.(check int) "all complete" 3 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "lossless" 0 r.Inrpp.Protocol.total_drops

let test_protocol_deterministic () =
  let g = Topology.Builders.fig3 () in
  let run () =
    Inrpp.Protocol.run ~cfg:bulk g [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 100 ]
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same fct" true
    (a.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct
    = b.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct);
  Alcotest.(check int) "same detours" a.Inrpp.Protocol.detoured
    b.Inrpp.Protocol.detoured

let test_protocol_validation () =
  let g = Topology.Builders.line 3 in
  Alcotest.check_raises "no flows" (Invalid_argument "Protocol.run: no flows")
    (fun () -> ignore (Inrpp.Protocol.run g []));
  let disconnected = Support.Fixtures.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "unroutable"
    (Invalid_argument "Protocol.run: flow 0 -> 3 unroutable") (fun () ->
      ignore
        (Inrpp.Protocol.run disconnected
           [ Inrpp.Protocol.flow_spec ~src:0 ~dst:3 1 ]));
  (* the error names the unroutable flow, not the first one *)
  Alcotest.check_raises "unroutable second flow"
    (Invalid_argument "Protocol.run: flow 2 -> 1 unroutable") (fun () ->
      ignore
        (Inrpp.Protocol.run disconnected
           [ Inrpp.Protocol.flow_spec ~src:0 ~dst:1 1;
             Inrpp.Protocol.flow_spec ~src:2 ~dst:1 1 ]));
  Alcotest.check_raises "bad spec" (Invalid_argument "Protocol.flow_spec: chunks <= 0")
    (fun () -> ignore (Inrpp.Protocol.flow_spec ~src:0 ~dst:1 0));
  Alcotest.check_raises "NaN start"
    (Invalid_argument "Protocol.flow_spec: negative or NaN start") (fun () ->
      ignore (Inrpp.Protocol.flow_spec ~start:nan ~src:0 ~dst:1 1));
  (* the record is public: [run] checks a hand-built spec the same way *)
  let spec = Inrpp.Protocol.flow_spec ~src:0 ~dst:1 1 in
  List.iter
    (fun (msg, bad) ->
      Alcotest.check_raises msg (Invalid_argument ("Protocol.run: " ^ msg))
        (fun () -> ignore (Inrpp.Protocol.run ~horizon:5. g [ spec; bad ])))
    [ ("src = dst", { spec with Inrpp.Protocol.dst = 0 });
      ("chunks <= 0", { spec with Inrpp.Protocol.chunks = 0 });
      ("negative or NaN start", { spec with Inrpp.Protocol.start = nan }) ]

(* A content key is checked with the spec: it keys the
   popularity cache as a [Chunk_key] flow, whose order holds in
   [0, 2^31).  Both ends of that range run (with ICN caching, so the
   cache packs them); one past either end is refused by [flow_spec] and
   by [run] before anything is wired. *)
let test_protocol_content_range () =
  let g = Topology.Builders.line 3 in
  let msg who = Invalid_argument (who ^ ": content outside [0, 2^31)") in
  let spec = Inrpp.Protocol.flow_spec ~src:0 ~dst:2 4 in
  List.iter
    (fun c ->
      let what = Printf.sprintf "content %d" c in
      Alcotest.check_raises ("flow_spec " ^ what) (msg "Protocol.flow_spec")
        (fun () ->
          ignore (Inrpp.Protocol.flow_spec ~content:c ~src:0 ~dst:2 4));
      Alcotest.check_raises ("run " ^ what) (msg "Protocol.run") (fun () ->
          ignore
            (Inrpp.Protocol.run ~horizon:5. g
               [ spec; { spec with Inrpp.Protocol.content = Some c } ])))
    [ -1; 0x8000_0000; min_int; max_int ];
  let cfg = { Inrpp.Config.default with Inrpp.Config.icn_caching = true } in
  let r =
    Inrpp.Protocol.run ~cfg ~horizon:5. g
      [ Inrpp.Protocol.flow_spec ~content:0 ~src:0 ~dst:2 4;
        Inrpp.Protocol.flow_spec ~content:0x7fff_ffff ~src:0 ~dst:2 4 ]
  in
  Alcotest.(check int) "both ends run" 2 r.Inrpp.Protocol.completed

(* Set-up cost must grow linearly in the flow count: routes come from
   one shortest-path tree per source, and the pace-rate sharer count
   from one pass over them.  A horizon of 1ns runs set-up and nothing
   else; allocation counts repeat exactly, so the ratio is stable. *)
let test_protocol_setup_linear () =
  let g = Topology.Isp_zoo.graph Topology.Isp_zoo.Ebone in
  let setup_words flows =
    let workload =
      {
        Workload.Gen.default with
        Workload.Gen.horizon = 1000.;
        max_requests = flows;
        rate = 8.;
      }
    in
    let before = Gc.minor_words () in
    let r = Inrpp.Protocol.run ~horizon:1e-9 ~workload g [] in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "every request became a flow" flows
      (Array.length r.Inrpp.Protocol.flows);
    words
  in
  let n = 60 in
  let ratio = setup_words (4 * n) /. setup_words n in
  if ratio >= 6. then
    Alcotest.failf "set-up allocation grew %.1fx for 4x the flows" ratio

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_session_next_needed_is_lowest_missing =
  QCheck.Test.make ~name:"session next_needed is the lowest missing" ~count:200
    QCheck.(pair (int_range 1 50) (list (int_range 0 49)))
    (fun (total, arrivals) ->
      let s = Inrpp.Session.create ~total_chunks:total in
      let got = Array.make total false in
      List.iter
        (fun idx ->
          if idx < total then begin
            ignore (Inrpp.Session.receive s idx);
            got.(idx) <- true
          end)
        arrivals;
      let expected =
        let rec scan i = if i >= total then total else if got.(i) then scan (i + 1) else i in
        scan 0
      in
      Inrpp.Session.next_needed s = expected)

let prop_phase_never_skips_validation =
  QCheck.Test.make ~name:"phase machine output is stable under repeats"
    ~count:200
    QCheck.(triple (float_bound_inclusive 2.) bool bool)
    (fun (ratio, detour, pressure) ->
      let p = phase_mk () in
      let a = upd p ~ratio ~detour ~pressure ~drained:(not pressure) in
      let b = upd p ~ratio ~detour ~pressure ~drained:(not pressure) in
      (* a second identical update never changes the phase again, except
         the legal Detour -> Backpressure escalation under pressure *)
      a = b || (a = Inrpp.Phase.Detour && b = Inrpp.Phase.Backpressure))

let prop_session_any_permutation_completes =
  QCheck.Test.make ~name:"session completes under any arrival order" ~count:100
    QCheck.(int_range 1 60)
    (fun n ->
      let s = Inrpp.Session.create ~total_chunks:n in
      let order = Array.init n Fun.id in
      let rng = Sim.Rng.create (Int64.of_int (n * 7919)) in
      for i = n - 1 downto 1 do
        let j = Sim.Rng.int rng (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      Array.iter (fun idx -> ignore (Inrpp.Session.receive s idx)) order;
      Inrpp.Session.is_complete s
      && Inrpp.Session.next_needed s = n
      && Inrpp.Session.received_count s = n)

let prop_protocol_completes_on_random_lines =
  QCheck.Test.make
    ~name:"single transfer completes on random line topologies" ~count:15
    QCheck.(pair (int_range 3 6) (int_range 1 50))
    (fun (hops, chunks) ->
      let g = Topology.Builders.line ~capacity:10e6 ~delay:1e-3 hops in
      let r =
        Inrpp.Protocol.run ~cfg:bulk ~horizon:120. g
          [ Inrpp.Protocol.flow_spec ~src:0 ~dst:(hops - 1) chunks ]
      in
      r.Inrpp.Protocol.completed = 1 && r.Inrpp.Protocol.total_drops = 0)

let prop_estimator_converges_under_stationary_mix =
  (* constant per-interval demand: the EWMA follows the closed form
     ra_k = inst * (1 - (1-alpha)^k), stays below the instantaneous
     rate and converges to it *)
  QCheck.Test.make ~name:"estimator converges under a stationary mix"
    ~count:200
    QCheck.(triple (int_range 1 20) (int_range 1 1000) (int_range 1 120))
    (fun (a20, kbits, ticks) ->
      let alpha = float_of_int a20 /. 20. in
      let bits = float_of_int kbits *. 1000. in
      let ti = 0.04 in
      let est = Inrpp.Rate_estimator.create ~ti ~alpha ~capacity:10e6 in
      for _ = 1 to ticks do
        Inrpp.Rate_estimator.note_request est ~expected_bits:bits;
        Inrpp.Rate_estimator.tick est
      done;
      let inst = bits /. ti in
      let ra = Inrpp.Rate_estimator.anticipated_rate est in
      let closed = inst *. (1. -. ((1. -. alpha) ** float_of_int ticks)) in
      Float.abs (ra -. closed) <= 1e-6 *. inst
      && ra <= inst *. (1. +. 1e-12)
      && (* convergence: (1-alpha)^k <= 3e-8 for alpha >= 1/4, k >= 60 *)
      (alpha < 0.25 || ticks < 60 || Float.abs (ra -. inst) <= 1e-5 *. inst))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "inrpp"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_config_default_valid;
          Alcotest.test_case "rejections" `Quick test_config_rejections;
          Alcotest.test_case "chunk tx time" `Quick test_config_chunk_tx_time;
        ] );
      ( "flow table",
        [
          Alcotest.test_case "soa: install/release" `Quick ft_install_release;
          Alcotest.test_case "soa: slot recycling" `Quick ft_slot_recycling;
          Alcotest.test_case "soa: reinstall semantics" `Quick
            ft_reinstall_semantics;
          Alcotest.test_case "soa: flag bits" `Quick ft_flags_roundtrip;
          Alcotest.test_case "invalid args" `Quick test_ft_invalid_args;
          Alcotest.test_case "packed field bounds" `Quick ft_packed_bounds;
          Alcotest.test_case "unpinned bytes" `Quick ft_unpinned_bytes;
          Alcotest.test_case "recycled unpinned" `Quick ft_recycled_unpinned;
        ]
        @ qc
            [
              prop_flow_table_order;
              prop_flow_table_ascending;
              prop_flow_table_pages;
            ] );
      ( "session",
        [
          Alcotest.test_case "in order" `Quick test_session_in_order;
          Alcotest.test_case "out of order" `Quick test_session_out_of_order;
          Alcotest.test_case "bounds" `Quick test_session_bounds;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "converges" `Quick test_estimator_converges;
          Alcotest.test_case "transit counts" `Quick test_estimator_transit_counts;
          Alcotest.test_case "decays" `Quick test_estimator_decays;
        ] );
      (* this group and "tick exact" and "link flips" below stand
         alone so CI runs them by name *)
      ( "idle replay",
        [
          Alcotest.test_case "equals ticks" `Quick test_estimator_replay_idle;
        ] );
      ( "phase",
        [
          Alcotest.test_case "push to detour" `Quick test_phase_push_to_detour;
          Alcotest.test_case "push to bp" `Quick test_phase_push_to_bp_without_detour;
          Alcotest.test_case "hysteresis" `Quick test_phase_hysteresis;
          Alcotest.test_case "pressure escalation" `Quick test_phase_detour_to_bp_on_pressure;
          Alcotest.test_case "bp recovery" `Quick test_phase_bp_recovery;
        ] );
      ( "detour table",
        [
          Alcotest.test_case "fig3 candidates" `Quick test_detour_table_candidates;
          Alcotest.test_case "line has none" `Quick test_detour_table_none_on_line;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "handler alloc budget" `Quick
            test_router_handler_alloc_budget;
          Alcotest.test_case "sweep alloc budget" `Quick
            test_router_sweep_alloc_budget;
          Alcotest.test_case "protocol alloc gate" `Quick
            test_protocol_alloc_gate;
          Alcotest.test_case "flow-state gate" `Quick test_flow_state_gate;
          Alcotest.test_case "drain alloc gate" `Quick test_drain_alloc_gate;
          (* the endpoint gates: a group name longer than the others
             would widen alcotest's name column and truncate every case
             name in this suite differently *)
          Alcotest.test_case "endpoint pacing alloc" `Quick
            test_sender_pacing_alloc;
          Alcotest.test_case "endpoint timeout alloc" `Quick
            test_receiver_timeout_alloc;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "refusals count requests, not probes" `Quick
            test_router_refusals_count_requests;
          Alcotest.test_case "drain skips exitless ports exactly" `Quick
            test_router_drain_skip_exact;
          Alcotest.test_case "port creation instants" `Quick
            test_router_port_creation;
          Alcotest.test_case "reinstall clears bp_local exactly" `Quick
            test_router_reinstall_bp_local;
          Alcotest.test_case "sampler estimator series pinned" `Quick
            test_sampler_estimator_series_pinned;
          Alcotest.test_case "registry drains: refill" `Quick
            test_registry_drain_refill;
          Alcotest.test_case "registry drains: engage only" `Quick
            test_registry_drain_bp_only;
          Alcotest.test_case "registry drains: wipe, restart" `Quick
            test_registry_drain_wipe;
          Alcotest.test_case "registry drains: link down" `Quick
            test_registry_drain_link_down;
          QCheck_alcotest.to_alcotest prop_custody_ledger;
        ] );
      ( "link flips",
        [
          Alcotest.test_case "decision table" `Quick
            test_router_link_flip_table;
          Alcotest.test_case "refused detour send is no drop" `Quick
            test_router_refused_detour_send;
        ] );
      ( "crash",
        [ Alcotest.test_case "wipe lists each chunk once" `Quick
            test_router_wipe_list ] );
      ( "next hops",
        [
          Alcotest.test_case "a data link into the node" `Quick
            test_router_refuses_foreign_data_hop;
          Alcotest.test_case "a request link into the node" `Quick
            test_router_refuses_foreign_req_hop;
          Alcotest.test_case "a content past int32" `Quick
            test_router_refuses_wide_content;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "sender paced push" `Quick test_sender_paced_push;
          Alcotest.test_case "sender backpressure mode" `Quick test_sender_backpressure_mode;
          Alcotest.test_case "sender stall retransmission" `Quick test_sender_stall_retransmission;
          Alcotest.test_case "receiver flow balance" `Quick test_receiver_flow_balance;
          Alcotest.test_case "receiver timeout" `Quick test_receiver_timeout_rerequests;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "clean line" `Quick test_protocol_clean_line;
          Alcotest.test_case "bottleneck custody" `Quick test_protocol_bottleneck_custody;
          Alcotest.test_case "backpressure engages" `Quick test_protocol_backpressure_engages;
          Alcotest.test_case "trace and obs" `Quick test_protocol_trace_and_obs;
          Alcotest.test_case "fig3 detours" `Quick test_protocol_fig3_detours;
          Alcotest.test_case "phase transitions" `Quick test_protocol_phase_transitions_observed;
          Alcotest.test_case "two flows share" `Quick test_protocol_two_flows_share;
          Alcotest.test_case "icn cache hits" `Quick test_protocol_icn_cache_hits;
          Alcotest.test_case "icn cache off by default" `Quick test_protocol_icn_cache_off_by_default;
          Alcotest.test_case "icn content across a reroute" `Quick
            test_protocol_icn_content_across_reroute;
          Alcotest.test_case "drr scheduler runs" `Quick test_protocol_drr_runs;
          Alcotest.test_case "recovers from wire loss" `Quick test_protocol_recovers_from_wire_loss;
          Alcotest.test_case "loss determinism" `Quick test_protocol_loss_is_deterministic;
          Alcotest.test_case "isp multi-flow integration" `Quick test_protocol_isp_multi_flow;
          Alcotest.test_case "deterministic" `Quick test_protocol_deterministic;
          Alcotest.test_case "validation" `Quick test_protocol_validation;
          Alcotest.test_case "content outside 31 bits" `Quick
            test_protocol_content_range;
          Alcotest.test_case "set-up linear in flows" `Quick
            test_protocol_setup_linear;
        ] );
      ( "properties",
        qc
          [
            prop_session_next_needed_is_lowest_missing;
            prop_phase_never_skips_validation;
            prop_session_any_permutation_completes;
            prop_protocol_completes_on_random_lines;
            prop_estimator_converges_under_stationary_mix;
            prop_flow_table_model;
          ] );
      ( "tick exact",
        qc [ prop_tick_matches_full_step; prop_lazy_decay_matches_full_step ] );
    ]
