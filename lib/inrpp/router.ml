module Link = Topology.Link
module Packet = Chunksim.Packet
module Net = Chunksim.Net
module Iface = Chunksim.Iface
module Cache = Chunksim.Cache
module Chunk_key = Chunksim.Chunk_key
module Trace = Chunksim.Trace
module Ft = Flow_table

(* int keys compared inline, not through polymorphic compare; the same
   buckets, resizes and fold order as a stdlib [Hashtbl] *)
module Itbl = Hashtbl.Make (Int)

type counters = {
  mutable forwarded_data : int;
  mutable detoured : int;
  mutable custody_stored : int;
  mutable custody_released : int;
  mutable dropped : int;
  mutable bp_engages : int;
  mutable bp_releases : int;
  mutable cache_hits : int;
  mutable failovers : int;
  mutable custody_wiped : int;
  mutable shed : int;
  mutable detours_refused : int;
}

type registry = Port.registry

type t = {
  s : Port.set;                   (* the interfaces' control plane *)
  (* per-flow forwarding state: next hops as port indices, flag
     bitfield and flowlet pin, paged slot records with free-list
     recycling (see Flow_table) *)
  ft : Ft.t;
  store : Cache.t;
  custody_packets : Packet.t Itbl.t;  (* Chunk_key-packed *)
  mutable drain_listed : bool;    (* in the registry's drain_nodes *)
  drain_flows : int array ref;    (* custody snapshot, reused per drain *)
  mutable drains : int;           (* drains that found custody, see port *)
  c : counters;
  mutable bp_locals : int;        (* entries with bp_local = true *)
  mutable local_producer : (Packet.t -> unit) option;
  mutable local_consumer : (Packet.t -> unit) option;
  mutable crashed : bool;
}

let registry = Port.registry

(* idle gap after which a flow may be re-pinned to a different path
   (flowlet switching: no reordering within a burst) *)
let flowlet_gap = 0.02

let create ~cfg ~net ~node ~detours
    ?(link_state = Topology.Link_state.create (Net.graph net)) ?trace
    ?(overload = Overload.Config.Off) ?registry () =
  (match registry with
  | Some r when node >= Array.length r.Port.tick_nodes ->
    invalid_arg "Router.create: node outside the registry"
  | Some _ | None -> ());
  {
    s =
      Port.create ~cfg ~net ~node ~detours ~link_state ~trace ~overload
        ~reg:registry;
    ft = Ft.create ~gap:flowlet_gap ();
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

let now t = Port.now t.s

(* Every router-level loss goes through here: it counts the drop and,
   with a trace attached, records it.  [link] is the link that refused
   [p], -1 where there is none. *)
let drop t ~link (p : Packet.t) =
  t.c.dropped <- t.c.dropped + 1;
  match t.s.Port.trace with
  | Some tr -> (
    let node = t.s.Port.node in
    match p with
    | Packet.Data { flow; idx; _ } ->
      Trace.record tr ~time:(now t)
        (Trace.Dropped { node; link; packet = Trace.Data; flow; idx })
    | Packet.Request { flow; nc; _ } ->
      Trace.record tr ~time:(now t)
        (Trace.Dropped { node; link; packet = Trace.Request; flow; idx = nc })
    | Packet.Backpressure _ -> () (* no site drops one *))
  | None -> ()

(* chunk-lifecycle events are gated per-trace (Trace.set_lifecycle) so
   check/differential runs and the artefact goldens see an unchanged
   event stream unless a span collector asked for them *)
let record_enqueued t ~link (p : Packet.t) =
  match t.s.Port.trace with
  | Some tr when Trace.lifecycle tr -> begin
    match p with
    | Packet.Data { flow; idx; _ } ->
      Trace.record tr ~time:(now t)
        (Trace.Enqueued { node = t.s.Port.node; link; flow; idx })
    | Packet.Request _ | Packet.Backpressure _ -> ()
  end
  | Some _ | None -> ()

let record_evacuated t ~flow ~idx =
  match t.s.Port.trace with
  | Some tr when Trace.lifecycle tr ->
    Trace.record tr ~time:(now t)
      (Trace.Custody_evacuated { node = t.s.Port.node; flow; idx })
  | Some _ | None -> ()

(* A custody store or a local engage gives the next drains work *)
let list_drain t =
  match t.s.Port.reg with
  | Some r when not t.drain_listed ->
    t.drain_listed <- true;
    r.Port.drain_n <-
      Port.insert_sorted r.Port.drain_nodes r.Port.drain_n t.s.Port.node
  | Some _ | None -> ()

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

(* one index walk: a reinstall resets the flags, so a set bp_local
   leaves the count first *)
let install_flow t ?content ~flow ~data_link ~req_link () =
  if flow < 0 then invalid_arg "Router.install_flow: flow < 0";
  let data_port = port_index t data_link in
  let req_port = port_index t req_link in
  let content = Option.value ~default:flow content in
  (* refuse before [add] takes a slot, as [port_index] does *)
  Ft.check_content content;
  let slot = Ft.add t.ft ~flow in
  if Ft.bp_local t.ft slot then t.bp_locals <- t.bp_locals - 1;
  Ft.set_entry t.ft slot ~content ~data_port ~req_port

let set_local_producer t f = t.local_producer <- Some f
let set_local_consumer t f = t.local_consumer <- Some f

(* A real chunk asking for a detour now (a forwarded chunk, or one
   drain round's evacuation attempt): when neighbour pressure alone
   denies it one, that is one refusal *)
let detour_for t p =
  let i = Port.first_usable t.s p in
  if i = -2 then t.c.detours_refused <- t.c.detours_refused + 1;
  i

(* The port of a slot's data next hop, which must exist *)
let port_at t slot = t.s.Port.ports.(Ft.data_port t.ft slot)

(* ------------------------------------------------------------------ *)
(* Back-pressure signalling *)

let signal_upstream t slot ~flow ~engage =
  let pkt = Packet.backpressure ~flow ~engage in
  if engage then t.c.bp_engages <- t.c.bp_engages + 1
  else t.c.bp_releases <- t.c.bp_releases + 1;
  (match t.s.Port.trace with
  | Some tr ->
    Trace.record tr ~time:(now t)
      (Trace.Bp_signal { node = t.s.Port.node; flow; engage })
  | None -> ());
  let rp = Ft.req_port t.ft slot in
  if rp >= 0 then
    ignore (Net.send t.s.Port.net ~via:t.s.Port.ports.(rp).p_link pkt)
  else begin
    (* we are at the producer node: tell the local sender directly *)
    match t.local_producer with
    | Some producer -> producer pkt
    | None -> ()
  end

(* The "local" engage slot is shared between custody pressure and
   path-outage pressure: at most one upstream engage is outstanding
   for the pair, which preserves the checker's ≤2 balance per
   (node, flow) — the second slot being the relayed downstream
   engage.  Set one of the two flags to [on]; the upstream hears of it
   when their union flips. *)
let set_local t slot ~flow ~which on =
  let was = Ft.bp_local t.ft slot || Ft.bp_outage t.ft slot in
  (match which with
  | `Custody ->
    if Ft.bp_local t.ft slot <> on then begin
      Ft.set_bp_local t.ft slot on;
      if on then begin
        t.bp_locals <- t.bp_locals + 1;
        list_drain t
      end
      else t.bp_locals <- t.bp_locals - 1
    end
  | `Outage -> Ft.set_bp_outage t.ft slot on);
  if was <> (Ft.bp_local t.ft slot || Ft.bp_outage t.ft slot) then
    signal_upstream t slot ~flow ~engage:on

(* Route reconvergence: point an existing entry at new primary links
   without disturbing its flowlet or custody state.  A reroute onto a
   live data link ends any outage condition the old path caused. *)
let reroute_flow t ?content ~flow ~data_link ~req_link () =
  let slot = Ft.find t.ft flow in
  if slot < 0 then install_flow t ?content ~flow ~data_link ~req_link ()
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
(* Custody *)

(* Load shedding: above {!Overload.Config.shed_threshold} custody
   occupancy, refuse the admission outright — new chunks are shed
   {e before} in-custody chunks are endangered, and the upstream hears
   about it immediately instead of at store exhaustion.  The [On] test
   comes first so a run without overload control reads no occupancy:
   that read boxes two floats per admission. *)
let over t x =
  match t.s.Port.overload with
  | Overload.Config.On _ ->
    Cache.custody_occupancy t.store >= x *. Cache.capacity t.store
  | Off -> false

let shed_admission t = over t Overload.Config.shed_threshold

(* Early back-pressure: escalate upstream at
   {!Overload.Config.early_bp_threshold} occupancy, before the store's
   high watermark — under a flash crowd the watermark fires too late
   to stop the wave already in flight. *)
let early_bp t = over t Overload.Config.early_bp_threshold

(* A chunk custody turns away is a drop; [shed] counts an overload
   refusal and [engage] makes the upstream slow down *)
let refuse t slot flow p ~shed ~engage =
  if shed then t.c.shed <- t.c.shed + 1;
  if engage then set_local t slot ~flow ~which:`Custody true;
  drop t ~link:(-1) p

let custody t slot flow (p : Packet.t) =
  match p with
  | Packet.Data { idx; size; _ } -> begin
    let key = Chunk_key.pack ~flow ~idx in
    if Itbl.mem t.custody_packets key then
      (* duplicate copy (a retransmit racing the custodied original):
         admitting it would put a second entry in the store's custody
         queue while the packet table holds one payload per (flow,
         idx), so the duplicate could never drain — it would leak
         store space until the end of the run.  Drop it; the
         custodied copy is already scheduled to move on. *)
      refuse t slot flow p ~shed:false ~engage:false
    else if shed_admission t then refuse t slot flow p ~shed:true ~engage:true
    else
      match Cache.put_custody t.store ~flow ~idx ~bits:size with
      | `Stored ->
        Itbl.replace t.custody_packets key p;
        t.c.custody_stored <- t.c.custody_stored + 1;
        list_drain t;
        (match t.s.Port.trace with
        | Some tr ->
          Trace.record tr ~time:(now t)
            (Trace.Cached { node = t.s.Port.node; flow; idx })
        | None -> ());
        (* back-pressure engages at the high watermark, not on the first
           stored chunk — small excursions are what the store is for *)
        if Cache.above_high t.store || early_bp t then
          set_local t slot ~flow ~which:`Custody true
      | `Rejected ->
        (* the admission policy refused the chunk: shed it and make the
           upstream slow down, exactly as for threshold shedding *)
        refuse t slot flow p ~shed:true ~engage:true
      | `Full ->
        (* the store itself overflowed: the congestion-collapse guard the
           paper's back-pressure exists to prevent *)
        refuse t slot flow p ~shed:false ~engage:true
  end
  | Packet.Request _ | Packet.Backpressure _ -> ()

(* ------------------------------------------------------------------ *)
(* Data forwarding *)

(* Queue [p] on the primary [l]; false when the interface refused it *)
let send_primary t (l : Link.t) p =
  match Net.send t.s.Port.net ~via:l p with
  | `Queued ->
    t.c.forwarded_data <- t.c.forwarded_data + 1;
    record_enqueued t ~link:l.Link.id p;
    true
  | `Dropped -> false

(* A refused send records nothing: the chunk is still the caller's,
   which custodies it or keeps it in custody *)
let send_detour t flow (c : Port.dcand) (p : Packet.t) =
  let idx =
    match p with
    | Packet.Data { idx; _ } -> idx
    | Packet.Request _ | Packet.Backpressure _ -> -1
  in
  let p' =
    match p with
    | Packet.Data d -> Packet.Data { d with detour_route = c.dc_rest }
    | Packet.Request _ | Packet.Backpressure _ -> p
  in
  Rate_estimator.note_transit (Port.estimator t.s c.dc_port)
    ~bits:(Packet.size p);
  match Net.send t.s.Port.net ~via:c.dc_first p' with
  | `Queued ->
    t.c.detoured <- t.c.detoured + 1;
    (match t.s.Port.trace with
    | Some tr ->
      Trace.record tr ~time:(now t)
        (Trace.Detoured { node = t.s.Port.node; flow; idx; via = c.dc_via })
    | None -> ());
    record_enqueued t ~link:c.dc_first.Link.id p';
    `Queued
  | `Dropped -> `Dropped

(* Deflect [p] onto the best usable detour around [l]; prefers the
   flow's previously pinned detour (flowlet stability), falls back to
   custody when no detour has queue room — including when the chosen
   detour's admission fails under the candidate check (a race with new
   arrivals, or an interface that just went down). *)
let try_detour t slot flow (pt : Port.port) (p : Packet.t) =
  let fi = detour_for t pt in
  if fi < 0 then custody t slot flow p
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
    | `Dropped -> custody t slot flow p
  end

let maybe_cache_popular t slot (p : Packet.t) =
  if t.s.Port.cfg.Config.icn_caching then begin
    match p with
    | Packet.Data { idx; size; _ } ->
      Cache.insert_popular t.store ~flow:(Ft.content t.ft slot) ~idx
        ~bits:size
    | Packet.Request _ | Packet.Backpressure _ -> ()
  end

(* an overflowing queue falls through to detours, then custody —
   congestion is handled locally even before the estimator notices
   it *)
let forward_on_primary t slot flow (pt : Port.port) (p : Packet.t) =
  if not (send_primary t pt.p_link p) then try_detour t slot flow pt p

let forward_primary_path t slot flow (p : Packet.t) =
  maybe_cache_popular t slot p;
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
      | Phase.Backpressure -> custody t slot flow p
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
      && Cache.lookup_popular t.store ~flow:(Ft.content t.ft slot) ~idx:nc
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

(* Purge [flow]'s custody as drops.  Top level, not a local closure,
   so a release allocates nothing. *)
let rec strip_custody t flow =
  match Cache.take_custody t.store ~flow with
  | Some (idx, _bits) ->
    let key = Chunk_key.pack ~flow ~idx in
    let p = Itbl.find t.custody_packets key in
    Itbl.remove t.custody_packets key;
    drop t ~link:(-1) p;
    strip_custody t flow
  | None -> ()

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
    if not (Cache.custody_is_empty t.store) then strip_custody t flow
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

(* What one release attempt leaves for the rest of the drain: [Done]
   holds until it ends, so a later attempt would have no effect *)
type release = Released | Retry | Done

(* Hand [flow]'s oldest custody chunk to its primary interface, or to a
   detour when the primary is down or full.  Peek-then-commit: the chunk
   stays charged against the store budget until the handoff is known to
   have succeeded, so nothing can be admitted into the gap a failed
   evacuation would open.  [Retry] when the attempt had a side effect (a
   refusal counted, a send dropped) that the next round would repeat.
   Every site that changes the store changes the packet table with it,
   so the peeked chunk's payload is there. *)
let release_one t flow =
  let slot = Ft.find t.ft flow in
  let dp = if slot < 0 then -1 else Ft.data_port t.ft slot in
  if dp < 0 then Done
  else begin
    let pt = t.s.Port.ports.(dp) in
    let l = pt.p_link in
    let idx =
      if pt.blocked = t.drains then -1 else Cache.peek_custody t.store ~flow
    in
    if idx < 0 then Done
    else begin
      let primary =
        Port.link_is_up t.s l && Iface.queue_occupancy pt.p_iface < pt.p_limit
      in
      (* the exit: the primary, else this detour candidate *)
      let ci = if primary then 0 else detour_for t pt in
      if ci = -1 then (pt.blocked <- t.drains; Done)
      else if ci < 0 then Retry
      else begin
        t.c.custody_released <- t.c.custody_released + 1;
        (match t.s.Port.trace with
        | Some tr ->
          Trace.record tr ~time:(now t)
            (Trace.Custody_released { node = t.s.Port.node; flow; idx })
        | None -> ());
        let key = Chunk_key.pack ~flow ~idx in
        let p = Itbl.find t.custody_packets key in
        let sent =
          if primary then send_primary t l p
          else begin
            match send_detour t flow pt.dk_cands.(ci) p with
            | `Queued ->
              (* custody left this node sideways, not down the primary:
                 the recovery path's evacuation signal *)
              record_evacuated t ~flow ~idx;
              true
            | `Dropped -> false
          end
        in
        if sent then begin
          Cache.commit_custody t.store ~flow;
          Itbl.remove t.custody_packets key;
          Released
        end
        else begin
          (* raced with new arrivals, or the interface just went down:
             the chunk never left custody, so undo the release
             accounting and stop draining this flow for the round —
             never leak, never double-admit *)
          t.c.custody_released <- t.c.custody_released - 1;
          Retry
        end
      end
    end
  end

let drain t =
  if t.crashed then ()
  else begin
    (* release custody one chunk per flow per round so competing flows
       share the recovered bandwidth round-robin (the paper's scheduler
       multiplexes flows in round-robin fashion); a round keeps only
       the flows that may still release *)
    if not (Cache.custody_is_empty t.store) then begin
      t.drains <- t.drains + 1;
      let n = ref (Cache.custody_flows t.store t.drain_flows) in
      let flows = !(t.drain_flows) in
      let progress = ref true in
      while !progress do
        progress := false;
        let kept = ref 0 in
        for i = 0 to !n - 1 do
          let r = release_one t flows.(i) in
          if r = Released then progress := true;
          if r <> Done then (flows.(!kept) <- flows.(i); incr kept)
        done;
        n := !kept
      done
    end;
    (* release upstream pressure once the store has drained enough *)
    if t.bp_locals > 0 && Cache.below_low t.store then
      Ft.iter_bp t.ft ~forwarded:false (fun flow slot ->
          if Cache.custody_backlog t.store ~flow = 0 then
            set_local t slot ~flow ~which:`Custody false)
  end

(* An unlisted router holds no custody and its occupancy is exactly 0,
   which [iter_custody] relies on; the occupancy test only runs once
   the store is empty, and keeps a router listed while float
   accumulation has left a residue *)
let drain_work t =
  (not (Cache.custody_is_empty t.store))
  || t.bp_locals > 0
  || Cache.custody_occupancy t.store <> 0.

(* A drain stores no custody and engages nothing, so the list cannot
   grow during the sweep *)
let drain_sweep (reg : registry) routers =
  let kept = ref 0 in
  for i = 0 to reg.Port.drain_n - 1 do
    let r = routers.(reg.Port.drain_nodes.(i)) in
    drain r;
    if drain_work r then begin
      reg.Port.drain_nodes.(!kept) <- r.s.Port.node;
      incr kept
    end
    else r.drain_listed <- false
  done;
  reg.Port.drain_n <- !kept

let iter_custody (reg : registry) routers f =
  for i = 0 to reg.Port.drain_n - 1 do
    f routers.(reg.Port.drain_nodes.(i))
  done

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
    match policy with
    | `Preserve -> []
    | `Wipe ->
      let wiped =
        List.sort compare
          (Itbl.fold (fun k _ acc -> k :: acc) t.custody_packets [])
        |> List.map (fun k -> (Chunk_key.flow k, Chunk_key.idx k))
      in
      (* empty the store's custody region coherently with the table *)
      let n = Cache.custody_flows t.store t.drain_flows in
      for i = 0 to n - 1 do
        let flow = !(t.drain_flows).(i) in
        while Cache.peek_custody t.store ~flow >= 0 do
          Cache.commit_custody t.store ~flow
        done
      done;
      Itbl.reset t.custody_packets;
      t.c.custody_wiped <- t.c.custody_wiped + List.length wiped;
      wiped
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
let custody_packet_count t = Itbl.length t.custody_packets

let custody_ledger t =
  let backlog = ref 0 in
  for i = 0 to Cache.custody_flows t.store t.drain_flows - 1 do
    backlog :=
      !backlog + Cache.custody_backlog t.store ~flow:!(t.drain_flows).(i)
  done;
  (custody_packet_count t, !backlog)
