(* Forwarding, the handlers, install, reroute and release, the tick and
   the fault walks; the record is [Router_state]'s, the ledger [Custody]'s *)

include Router_state

type registry = Port.registry

let registry = Port.registry

(* idle gap after which a flow may be re-pinned to a different path
   (flowlet switching: no reordering within a burst) *)
let flowlet_gap = 0.02

type contents = int array

(* [Chunk_key.pack] orders a content key only in [0, 2^31) *)
let contents keys =
  Array.iter
    (fun c ->
      if c < 0 || c > 0x7fff_ffff then
        invalid_arg "Router.contents: content outside [0, 2^31)")
    keys;
  keys

let create ~cfg ~net ~node ~detours
    ?(link_state = Topology.Link_state.create (Net.graph net)) ?trace
    ?(overload = Overload.Config.Off) ?registry ?(contents = [||]) () =
  (match registry with
  | Some r when node >= Array.length r.Port.tick_nodes ->
    invalid_arg "Router.create: node outside the registry"
  | Some _ | None -> ());
  {
    s =
      Port.create ~cfg ~net ~node ~detours ~link_state ~trace ~overload
        ~reg:registry;
    ft = Ft.create ~gap:flowlet_gap ();
    contents;
    store =
      Cache.create ?policy:(Overload.Config.policy overload)
        ~capacity:cfg.Config.cache_bits ();
    custody_packets = Itbl.create 64;
    drain_listed = false;
    drain_flows = ref [||];
    drains = 0;
    c =
      {
        forwarded_data = 0;
        detoured = 0;
        custody_stored = 0;
        custody_released = 0;
        dropped = 0;
        bp_engages = 0;
        bp_releases = 0;
        cache_hits = 0;
        failovers = 0;
        custody_wiped = 0;
        shed = 0;
        detours_refused = 0;
      };
    bp_locals = 0;
    local_producer = None;
    local_consumer = None;
    crashed = false;
  }

let set_neighbor_pressure t f = t.s.Port.neighbor_pressure <- Some f

(* The local endpoints: a packet for one this node lacks is a drop *)
let to_consumer t p =
  match t.local_consumer with
  | Some consumer -> consumer p
  | None -> drop t ~link:(-1) p

let to_producer t p =
  match t.local_producer with
  | Some producer -> producer p
  | None -> drop t ~link:(-1) p

(* ------------------------------------------------------------------ *)
(* Flow table *)

(* a next hop's port index, -1 for none; a link that does not leave
   this node has none and is refused *)
let port_index t = function
  | Some (l : Link.t) ->
    let i = Port.index t.s l.Link.id in
    if i < 0 then invalid_arg "Router: next hop does not leave this node";
    i
  | None -> -1

(* The port of a slot's data next hop, which must exist *)
let port_at t slot = t.s.Port.ports.(Ft.data_port t.ft slot)

(* one index walk: a reinstall resets the flags, so a set bp_local
   leaves the count first *)
let install_flow t ~flow ~data_link ~req_link () =
  if flow < 0 then invalid_arg "Router.install_flow: flow < 0";
  let data_port = port_index t data_link in
  let req_port = port_index t req_link in
  let slot = Ft.add t.ft ~flow in
  if Ft.bp_local t.ft slot then t.bp_locals <- t.bp_locals - 1;
  Ft.set_entry t.ft slot ~data_port ~req_port

let set_local_producer t f = t.local_producer <- Some f
let set_local_consumer t f = t.local_consumer <- Some f

(* Route reconvergence: point an existing entry at new primary links
   without disturbing its flowlet or custody state.  A reroute onto a
   live data link ends any outage condition the old path caused. *)
let reroute_flow t ~flow ~data_link ~req_link () =
  let slot = Ft.find t.ft flow in
  if slot < 0 then install_flow t ~flow ~data_link ~req_link ()
  else begin
    Ft.set_ports t.ft slot ~data_port:(port_index t data_link)
      ~req_port:(port_index t req_link);
    match data_link with
    | Some l when Port.link_is_up t.s l ->
      Ft.set_failed_over t.ft slot false;
      set_local t slot ~flow ~which:`Outage false
    | Some _ | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Data forwarding *)

(* Deflect [p] onto the best usable detour around [l]; prefers the
   flow's previously pinned detour (flowlet stability), falls back to
   custody when no detour has queue room — including when the chosen
   detour's admission fails under the candidate check (a race with new
   arrivals, or an interface that just went down). *)
let try_detour t slot flow (pt : Port.port) (p : Packet.t) =
  let fi = detour_for t pt in
  if fi < 0 then Custody.admit t slot flow p
  else begin
    let first = pt.dk_cands.(fi) in
    let pinned =
      Ft.flowlet_choose t.ft slot ~now:(now t)
        ~preferred:(Ft.Via first.dc_via)
    in
    let chosen =
      match pinned with
      | Ft.Via via ->
        if via = first.dc_via then first
        else begin
          let vi = Port.via_from t.s pt.dk_cands via 0 in
          if vi >= 0 then pt.dk_cands.(vi)
          else first (* pinned detour filled up; re-route *)
        end
      | Ft.Primary -> first
    in
    match send_detour t flow chosen p with
    | `Queued -> () (* the detour copy went out; [p] is dead *)
    | `Dropped -> Custody.admit t slot flow p
  end

let maybe_cache_popular t flow (p : Packet.t) =
  if t.s.Port.cfg.Config.icn_caching then begin
    match p with
    | Packet.Data { idx; size; _ } ->
      Cache.insert_popular t.store ~flow:(content t flow) ~idx ~bits:size
    | Packet.Request _ | Packet.Backpressure _ -> ()
  end

(* an overflowing queue falls through to detours, then custody —
   congestion is handled locally even before the estimator notices
   it *)
let forward_on_primary t slot flow (pt : Port.port) (p : Packet.t) =
  if not (send_primary t pt.p_link p) then try_detour t slot flow pt p

let forward_primary_path t slot flow (p : Packet.t) =
  maybe_cache_popular t flow p;
  let dp = Ft.data_port t.ft slot in
  if dp < 0 then to_consumer t p
  else begin
    let pt = t.s.Port.ports.(dp) in
    if not (Port.link_is_up t.s pt.p_link) then
      (* primary interface is down: go straight to the detour set (the
         paper's detour phase, triggered by outage rather than rate);
         custody is the fallback when no detour survives *)
      try_detour t slot flow pt p
    else
      let ph = Phase.current (Port.phase pt) in
      let effective =
        if Ft.detour_override t.ft slot && ph = Phase.Push_data then
          Phase.Detour
        else ph
      in
      match effective with
      | Phase.Push_data -> forward_on_primary t slot flow pt p
      | Phase.Detour ->
        if Iface.queue_occupancy pt.p_iface < pt.p_limit then begin
          ignore
            (Ft.flowlet_choose t.ft slot ~now:(now t)
               ~preferred:Ft.Primary);
          forward_on_primary t slot flow pt p
        end
        else try_detour t slot flow pt p
      | Phase.Backpressure -> Custody.admit t slot flow p
  end

(* The link to the next node of a source route *)
let next_hop t next =
  Topology.Graph.find_link (Net.graph t.s.Port.net) t.s.Port.node next

let handle_data t (p : Packet.t) =
  match p with
  | Packet.Data ({ flow; detour_route; size; _ } as d) -> begin
    match detour_route with
    | next :: rest -> begin
      (* mid-detour: source-routed towards the rejoin node.  Under
         PIT-less forwarding this branch {e is} the data plane — the
         sender stamps the whole path as the label stack. *)
      match next_hop t next with
      | None -> drop t ~link:(-1) p
      | Some l ->
        let p' = Packet.Data { d with detour_route = rest } in
        Rate_estimator.note_transit (Port.estimator t.s (Port.port_of t.s l))
          ~bits:size;
        if not (send_primary t l p') then drop t ~link:l.Link.id p'
    end
    | [] ->
      if t.s.Port.cfg.Config.pitless then
        (* label stack exhausted at the consumer node: deliver without
           any flow-table consultation *)
        to_consumer t p
      else begin
        let slot = Ft.find t.ft flow in
        if slot < 0 then drop t ~link:(-1) p
        else forward_primary_path t slot flow p
      end
  end
  | Packet.Request _ | Packet.Backpressure _ -> ()

(* ------------------------------------------------------------------ *)
(* Requests and back-pressure packets *)

(* PIT-less request plane: pop the next label and relay; an exhausted
   stack means this is the producer node.  No estimator bookkeeping —
   the anticipated-rate/phase machinery exists to manage the per-flow
   state this mode deliberately does without. *)
let handle_request_pitless t (p : Packet.t) =
  match p with
  | Packet.Request ({ route; _ } as r) -> begin
    match route with
    | next :: rest -> begin
      match next_hop t next with
      | None -> drop t ~link:(-1) p
      | Some l ->
        let p' = Packet.Request { r with route = rest } in
        ignore (Net.send t.s.Port.net ~via:l p')
    end
    | [] -> to_producer t p
  end
  | Packet.Data _ | Packet.Backpressure _ -> ()

let handle_request t (p : Packet.t) =
  match p with
  | Packet.Request { flow; nc; _ } -> begin
    let slot = Ft.find t.ft flow in
    if slot < 0 then drop t ~link:(-1) p
    else if
      (* ICN short-circuit: a popularity-cached copy answers the request
         locally and the request is not forwarded upstream *)
      t.s.Port.cfg.Config.icn_caching
      && Cache.lookup_popular t.store ~flow:(content t flow) ~idx:nc
    then begin
      t.c.cache_hits <- t.c.cache_hits + 1;
      (match t.s.Port.trace with
      | Some tr ->
        Trace.record tr ~time:(now t)
          (Trace.Cache_hit { node = t.s.Port.node; flow; idx = nc })
      | None -> ());
      let data =
        Packet.data ~flow ~idx:nc ~born:(now t) t.s.Port.cfg.Config.chunk_bits
      in
      forward_primary_path t slot flow data
    end
    else begin
      (* every forwarded request predicts one chunk leaving through
         the data interface (eq. 1 bookkeeping) *)
      if Ft.data_port t.ft slot >= 0 then
        Rate_estimator.note_request
          (Port.estimator t.s (port_at t slot))
          ~expected_bits:t.s.Port.cfg.Config.chunk_bits;
      let rp = Ft.req_port t.ft slot in
      if rp >= 0 then
        ignore (Net.send t.s.Port.net ~via:t.s.Port.ports.(rp).p_link p)
      else to_producer t p
    end
  end
  | Packet.Data _ | Packet.Backpressure _ -> ()

let handle_backpressure t (p : Packet.t) =
  match p with
  | Packet.Backpressure { flow; engage } -> begin
    let slot = Ft.find t.ft flow in
    if slot < 0 then ()
    else if engage then begin
      (* paper §3.3: the upstream node first tries to bypass the
         congested area with a deeper detour, else relays the
         notification towards the sender *)
      let can_absorb =
        Ft.data_port t.ft slot >= 0
        && Port.first_usable t.s (port_at t slot) >= 0
      in
      if can_absorb then Ft.set_detour_override t.ft slot true
      else begin
        Ft.set_bp_forwarded t.ft slot true;
        signal_upstream t slot ~flow ~engage:true
      end
    end
    else begin
      Ft.set_detour_override t.ft slot false;
      if Ft.bp_forwarded t.ft slot then begin
        Ft.set_bp_forwarded t.ft slot false;
        signal_upstream t slot ~flow ~engage:false
      end
    end
  end
  | Packet.Data _ | Packet.Request _ -> ()

let handler t : Net.handler =
  if t.s.Port.cfg.Config.pitless then
    fun ~from:_ p ->
      match p with
      | Packet.Data _ -> handle_data t p
      | Packet.Request _ -> handle_request_pitless t p
      | Packet.Backpressure _ -> ()
  else
    fun ~from:_ p ->
      match p with
      | Packet.Data _ -> handle_data t p
      | Packet.Request _ -> handle_request t p
      | Packet.Backpressure _ -> handle_backpressure t p

let originate_data t p = handle_data t p

(* ------------------------------------------------------------------ *)
(* Flow teardown *)

(* Silent release: no upstream signalling — the flow is finished, its
   sender is about to go quiet on its own.  Custody still held for the
   flow can only be duplicate copies (the consumer has every chunk),
   so purge them as drops to keep the custody ledger and conservation
   accounting balanced.  Works while crashed (the slot and store are
   not control state). *)
let release_flow t ~flow =
  (* one index walk: the freed slot's flags stay readable *)
  let slot = Ft.release t.ft ~flow in
  if slot >= 0 then begin
    if Ft.bp_local t.ft slot then t.bp_locals <- t.bp_locals - 1;
    (* an empty store holds no queue, so skip the probe *)
    if not (Cache.custody_is_empty t.store) then Custody.strip t flow
  end

(* ------------------------------------------------------------------ *)
(* Periodic work *)

let walk t = Port.walk t.s ~crashed:t.crashed t.store

let tick t =
  if Option.is_some t.s.Port.reg then
    invalid_arg "Router.tick: the router belongs to a registry";
  t.s.Port.own_ticks <- t.s.Port.own_ticks + 1;
  ignore (walk t)

(* The walk notes nothing, so the list cannot grow during the sweep *)
let tick_sweep (reg : registry) routers =
  reg.Port.ticks <- reg.Port.ticks + 1;
  let kept = ref 0 in
  for i = 0 to reg.Port.tick_n - 1 do
    let r = routers.(reg.Port.tick_nodes.(i)) in
    if walk r then begin
      reg.Port.tick_nodes.(!kept) <- r.s.Port.node;
      incr kept
    end
    else r.s.Port.tick_listed <- false
  done;
  reg.Port.tick_n <- !kept

let drain = Custody.drain
let drain_sweep = Custody.drain_sweep
let iter_custody = Custody.iter_custody

(* ------------------------------------------------------------------ *)
(* Fault recovery *)

(* Re-evaluate every flow whose primary interface is down: ride the
   surviving detours when there are any ("down or congested" links
   trigger the detour phase, paper §3.3), stop the sender when no path
   remains.  Called by the protocol layer on every link-state flip
   plus a drain, so custody held for a dead next-hop evacuates onto
   detours at the outage instant.  Only a down flip engages an outage,
   and only an up flip releases one (its primary or a detour is back). *)
let on_link_flip t ~up =
  if not t.crashed then begin
    Ft.iter t.ft (fun flow slot ->
        let dp = Ft.data_port t.ft slot in
        if dp >= 0 then begin
          let pt = t.s.Port.ports.(dp) in
          if Port.link_is_up t.s pt.p_link then begin
            if up then begin
              Ft.set_failed_over t.ft slot false;
              set_local t slot ~flow ~which:`Outage false
            end
          end
          else if Port.first_usable t.s pt >= 0 then begin
            if up then set_local t slot ~flow ~which:`Outage false;
            if not (Ft.failed_over t.ft slot) then begin
              Ft.set_failed_over t.ft slot true;
              t.c.failovers <- t.c.failovers + 1
            end
          end
          else if not up then set_local t slot ~flow ~which:`Outage true
        end);
    drain t
  end

let crash t ~policy =
  if t.crashed then []
  else begin
    t.crashed <- true;
    (* control state is volatile under every policy *)
    Ft.iter t.ft (fun _ slot ->
        Ft.set_bp_local t.ft slot false;
        Ft.set_bp_forwarded t.ft slot false;
        Ft.set_detour_override t.ft slot false;
        Ft.set_bp_outage t.ft slot false;
        Ft.set_failed_over t.ft slot false);
    t.bp_locals <- 0;
    Port.reset t.s;
    match (policy : Fault.Schedule.node_policy) with
    | Preserve_custody -> []
    | Wipe_custody -> Custody.wipe t
  end

let restart t = t.crashed <- false

let is_crashed t = t.crashed

let phase_of_link t = Port.phase_of_link t.s
let anticipated_rate_of_link t = Port.anticipated_rate_of_link t.s
let ratio_of_link t = Port.ratio_of_link t.s
let estimator_links t = Port.estimator_links t.s
let phase_transitions t = Port.phase_transitions t.s

let bp_active_flows t =
  let n = ref 0 in
  Ft.iter_bp t.ft ~forwarded:true (fun _ _ -> incr n);
  !n

let flow_entries_live t = Ft.live t.ft
let flow_entries_peak t = Ft.peak t.ft
let flow_entries_recycled t = Ft.recycled t.ft
let flow_table_bytes t = Ft.approx_bytes t.ft

let cache t = t.store
let counters t = t.c
let node t = t.s.Port.node
let custody_ledger = Custody.ledger
