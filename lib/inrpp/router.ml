module Link = Topology.Link
module Packet = Chunksim.Packet
module Net = Chunksim.Net
module Iface = Chunksim.Iface
module Cache = Chunksim.Cache
module Chunk_key = Chunksim.Chunk_key
module Trace = Chunksim.Trace
module Ft = Flow_table

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

(* A detour candidate with everything the per-packet usability scan
   needs resolved ahead of time: hop interfaces, their admission
   limits, and (lazily) the first hop's estimator.  The static
   conditions — depth bound, every hop up — are folded into cache
   membership; only queue room is re-checked per scan, so the scan
   allocates nothing. *)
type dcand = {
  dc_first : Link.t;
  dc_via : Topology.Node.id;       (* first hop's dst: the flowlet pin *)
  dc_rest : Topology.Node.id list; (* source route after the first hop *)
  dc_ifaces : Iface.t array;       (* every hop, candidate order *)
  dc_limits : float array;         (* threshold * capacity per hop *)
  mutable dc_est : Rate_estimator.t option;
}

(* Per-link candidate cache, invalidated by generation: every
   link-state flip and every crash bumps [ls_gen], so a stale
   generation means the static filter must be recomputed.  Between
   bumps, up-ness cannot change (all transitions go through
   [on_link_down]/[on_link_up]). *)
type dcache = {
  mutable dk_gen : int;
  mutable dk_cands : dcand array;
}

(* Hot-path state resolved once per (flow, data link) instead of per
   packet: interface handle, queue-admission limit, and lazy
   phase/estimator references.  Dropped whenever the flow's link
   changes (reroute) or control state dies (crash); the lazy fields
   resolve through the same [phase]/[estimator] functions as before,
   so creation instants — observable through the sampler's
   [estimator_links] probe set — are unchanged. *)
type hot = {
  h_link : Link.t;
  h_iface : Iface.t;
  h_limit : float;                 (* threshold * capacity of h_iface *)
  mutable h_phase : Phase.t option;
  mutable h_est : Rate_estimator.t option;
  mutable h_dcache : dcache option;
}

type t = {
  cfg : Config.t;
  net : Net.t;
  node_id : Topology.Node.id;
  detours : Detour_table.t;
  link_state : Topology.Link_state.t option;
  trace : Trace.t option;
  (* per-flow forwarding state: next hops as link ids, flag bitfield,
     flowlet pin and hot cache, struct-of-arrays slots with free-list
     recycling (see Flow_table) *)
  ft : hot Ft.t;
  store : Cache.t;
  custody_packets : (int, Packet.t) Hashtbl.t;  (* Chunk_key-packed *)
  estimators : (int, Rate_estimator.t) Hashtbl.t;
  phases : (int, Phase.t) Hashtbl.t;
  dcaches : (int, dcache) Hashtbl.t;
  c : counters;
  mutable ls_gen : int;           (* link-state generation, see dcache *)
  mutable bp_locals : int;        (* entries with bp_local = true *)
  mutable local_producer : (Packet.t -> unit) option;
  mutable local_consumer : (Packet.t -> unit) option;
  mutable crashed : bool;
  (* overload control; [None] is the legacy path throughout *)
  overload : Overload.Config.t option;
  mutable neighbor_pressure : (Topology.Node.id -> float) option;
}

let create ~cfg ~net ~node ~detours ?link_state ?trace ?overload () =
  {
    cfg;
    net;
    node_id = node;
    detours;
    link_state;
    trace;
    ft = Ft.create ~gap:cfg.Config.flowlet_gap ();
    store =
      Cache.create ~high_water:cfg.Config.cache_high_water
        ~low_water:cfg.Config.cache_low_water
        ?policy:(Option.bind overload (fun ov -> Overload.Config.policy ov))
        ~capacity:cfg.Config.cache_bits ();
    custody_packets = Hashtbl.create 64;
    estimators = Hashtbl.create 8;
    phases = Hashtbl.create 8;
    dcaches = Hashtbl.create 8;
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
    ls_gen = 0;
    bp_locals = 0;
    local_producer = None;
    local_consumer = None;
    crashed = false;
    overload;
    neighbor_pressure = None;
  }

let set_neighbor_pressure t f = t.neighbor_pressure <- Some f

let now t = Sim.Engine.now (Net.engine t.net)

(* canonical link object for a stored id: Graph.link is O(1) and
   returns the same physical Link.t the adjacency lists hold, so the
   hot cache's [h_link == l] identity check keeps working *)
let link_of t id = Topology.Graph.link (Net.graph t.net) id

let record t e =
  match t.trace with
  | Some tr -> Trace.record tr ~time:(now t) e
  | None -> ()

(* Dropped events carry a formatted packet string; build it only when
   a trace is actually attached (bench runs drop packets too). *)
let record_drop t ~link (p : Packet.t) =
  match t.trace with
  | Some tr ->
    Trace.record tr ~time:(now t)
      (Trace.Dropped
         {
           node = t.node_id;
           link;
           packet = Format.asprintf "%a" Packet.pp p;
         })
  | None -> ()

(* chunk-lifecycle events are gated per-trace (Trace.set_lifecycle) so
   check/differential runs and the artefact goldens see an unchanged
   event stream unless a span collector asked for them *)
let record_enqueued t ~link (p : Packet.t) =
  match t.trace with
  | Some tr when Trace.lifecycle tr -> begin
    match p.Packet.header with
    | Packet.Data { flow; idx; _ } ->
      Trace.record tr ~time:(now t)
        (Trace.Enqueued { node = t.node_id; link; flow; idx })
    | Packet.Request _ | Packet.Backpressure _ -> ()
  end
  | Some _ | None -> ()

let record_evacuated t ~flow ~idx =
  match t.trace with
  | Some tr when Trace.lifecycle tr ->
    Trace.record tr ~time:(now t)
      (Trace.Custody_evacuated { node = t.node_id; flow; idx })
  | Some _ | None -> ()

let estimator t (l : Link.t) =
  match Hashtbl.find t.estimators l.Link.id with
  | e -> e
  | exception Not_found ->
    let e =
      Rate_estimator.create ~ti:t.cfg.Config.ti
        ~alpha:t.cfg.Config.estimator_alpha
        ~capacity:(l.Link.capacity *. t.cfg.Config.speed_factor)
    in
    Hashtbl.add t.estimators l.Link.id e;
    e

let phase t (l : Link.t) =
  match Hashtbl.find t.phases l.Link.id with
  | p -> p
  | exception Not_found ->
    let p =
      Phase.create ~engage:t.cfg.Config.engage_ratio
        ~release:t.cfg.Config.release_ratio
    in
    Hashtbl.add t.phases l.Link.id p;
    p

(* ------------------------------------------------------------------ *)
(* Flow table *)

let link_id = function Some (l : Link.t) -> l.Link.id | None -> -1

let install_flow t ?content ~flow ~data_link ~req_link () =
  if flow < 0 then invalid_arg "Router.install_flow: flow < 0";
  let slot = Ft.find t.ft flow in
  if slot >= 0 && Ft.bp_local t.ft slot then t.bp_locals <- t.bp_locals - 1;
  ignore
    (Ft.install t.ft ~flow
       ~content:(Option.value ~default:flow content)
       ~data_link:(link_id data_link) ~req_link:(link_id req_link))

let set_local_producer t f = t.local_producer <- Some f
let set_local_consumer t f = t.local_consumer <- Some f

let link_is_up t (l : Link.t) =
  match t.link_state with
  | Some ls -> Topology.Link_state.is_up ls l.Link.id
  | None -> true

(* ------------------------------------------------------------------ *)
(* Detour candidate cache *)

(* detour candidates around [l] within the configured depth and with
   every hop up; queue room is the per-scan dynamic check.  Remote
   queue state stands in for the paper's periodic utilisation exchange
   between one-hop neighbours. *)
let build_cands t (l : Link.t) =
  let usable =
    List.filter
      (fun (cand : Detour_table.candidate) ->
        cand.Detour_table.hops - 1 <= t.cfg.Config.max_detour
        && List.for_all (fun hop -> link_is_up t hop) cand.Detour_table.links)
      (Detour_table.candidates t.detours l)
  in
  Array.of_list
    (List.map
       (fun (cand : Detour_table.candidate) ->
         let ifaces =
           Array.of_list
             (List.map
                (fun (hop : Link.t) -> Net.iface t.net hop.Link.id)
                cand.Detour_table.links)
         in
         let limits =
           Array.map
             (fun i ->
               t.cfg.Config.detour_queue_threshold *. Iface.queue_capacity i)
             ifaces
         in
         {
           dc_first = cand.Detour_table.first_link;
           dc_via = cand.Detour_table.first_link.Link.dst;
           dc_rest = cand.Detour_table.rest;
           dc_ifaces = ifaces;
           dc_limits = limits;
           dc_est = None;
         })
       usable)

let refresh_dcache t (l : Link.t) dk =
  if dk.dk_gen <> t.ls_gen then begin
    dk.dk_cands <- build_cands t l;
    dk.dk_gen <- t.ls_gen
  end

let dcache_of t (l : Link.t) =
  let dk =
    match Hashtbl.find t.dcaches l.Link.id with
    | dk -> dk
    | exception Not_found ->
      let dk = { dk_gen = t.ls_gen - 1; dk_cands = [||] } in
      Hashtbl.add t.dcaches l.Link.id dk;
      dk
  in
  refresh_dcache t l dk;
  dk

(* Detour refusal into pressured neighbours: with overload control on,
   a candidate whose first hop lands on a neighbour already above the
   configured custody-occupancy fraction is unusable — deflecting load
   into a store that is itself shedding only spreads the collapse.
   The pressure function is installed by the protocol layer (it owns
   the router array); queue room is still checked first so the counter
   only counts candidates refused {e solely} because of pressure. *)
let cand_pressure_ok t (c : dcand) =
  match t.overload, t.neighbor_pressure with
  | Some ov, Some pressure_of
    when ov.Overload.Config.neighbor_pressure < infinity ->
    if pressure_of c.dc_via >= ov.Overload.Config.neighbor_pressure then begin
      t.c.detours_refused <- t.c.detours_refused + 1;
      false
    end
    else true
  | (Some _ | None), _ -> true

let cand_ok t (c : dcand) =
  let n = Array.length c.dc_ifaces in
  let rec ok i =
    i >= n
    || (Iface.queue_occupancy c.dc_ifaces.(i) < c.dc_limits.(i) && ok (i + 1))
  in
  ok 0 && cand_pressure_ok t c

let first_usable t dk =
  let n = Array.length dk.dk_cands in
  let rec go i =
    if i >= n then -1 else if cand_ok t dk.dk_cands.(i) then i else go (i + 1)
  in
  go 0

let usable_with_via t dk via =
  let n = Array.length dk.dk_cands in
  let rec go i =
    if i >= n then -1
    else if dk.dk_cands.(i).dc_via = via && cand_ok t dk.dk_cands.(i) then i
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Per-flow hot state *)

let hot_of t slot (l : Link.t) =
  match Ft.hot t.ft slot with
  | Some h when h.h_link == l -> h
  | Some _ | None ->
    let i = Net.iface t.net l.Link.id in
    let h =
      {
        h_link = l;
        h_iface = i;
        h_limit = t.cfg.Config.detour_queue_threshold *. Iface.queue_capacity i;
        h_phase = None;
        h_est = None;
        h_dcache = None;
      }
    in
    Ft.set_hot t.ft slot (Some h);
    h

let hot_phase t h =
  match h.h_phase with
  | Some p -> p
  | None ->
    let p = phase t h.h_link in
    h.h_phase <- Some p;
    p

let hot_est t h =
  match h.h_est with
  | Some e -> e
  | None ->
    let e = estimator t h.h_link in
    h.h_est <- Some e;
    e

let hot_dcache t h =
  match h.h_dcache with
  | Some dk ->
    refresh_dcache t h.h_link dk;
    dk
  | None ->
    let dk = dcache_of t h.h_link in
    h.h_dcache <- Some dk;
    dk

let slot_dcache t slot (l : Link.t) =
  match Ft.hot t.ft slot with
  | Some h when h.h_link == l -> hot_dcache t h
  | Some _ | None -> dcache_of t l

(* ------------------------------------------------------------------ *)
(* Back-pressure signalling *)

let signal_upstream t slot ~flow ~engage =
  let pkt = Packet.backpressure ~flow ~engage in
  if engage then t.c.bp_engages <- t.c.bp_engages + 1
  else t.c.bp_releases <- t.c.bp_releases + 1;
  record t (Trace.Bp_signal { node = t.node_id; flow; engage });
  let rl = Ft.req_link t.ft slot in
  if rl >= 0 then ignore (Net.send t.net ~via:(link_of t rl) pkt)
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
   engage. *)
let engage_local t slot ~flow ~which =
  let was = Ft.bp_local t.ft slot || Ft.bp_outage t.ft slot in
  (match which with
  | `Custody ->
    if not (Ft.bp_local t.ft slot) then begin
      Ft.set_bp_local t.ft slot true;
      t.bp_locals <- t.bp_locals + 1
    end
  | `Outage -> Ft.set_bp_outage t.ft slot true);
  if not was then signal_upstream t slot ~flow ~engage:true

let release_local t slot ~flow ~which =
  let had =
    match which with
    | `Custody -> Ft.bp_local t.ft slot
    | `Outage -> Ft.bp_outage t.ft slot
  in
  (match which with
  | `Custody ->
    if Ft.bp_local t.ft slot then begin
      Ft.set_bp_local t.ft slot false;
      t.bp_locals <- t.bp_locals - 1
    end
  | `Outage -> Ft.set_bp_outage t.ft slot false);
  if had && not (Ft.bp_local t.ft slot || Ft.bp_outage t.ft slot) then
    signal_upstream t slot ~flow ~engage:false

(* Route reconvergence: point an existing entry at new primary links
   without disturbing its flowlet or custody state.  A reroute onto a
   live data link ends any outage condition the old path caused. *)
let reroute_flow t ?content ~flow ~data_link ~req_link () =
  let slot = Ft.find t.ft flow in
  if slot < 0 then install_flow t ?content ~flow ~data_link ~req_link ()
  else begin
    Ft.set_links t.ft slot ~data_link:(link_id data_link)
      ~req_link:(link_id req_link);
    Ft.set_hot t.ft slot None;
    match data_link with
    | Some l when link_is_up t l ->
      Ft.set_failed_over t.ft slot false;
      if Ft.bp_outage t.ft slot then release_local t slot ~flow ~which:`Outage
    | Some _ | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Custody *)

(* Load shedding (overload control only): above [shed_threshold]
   custody occupancy, refuse the admission outright — new chunks are
   shed {e before} in-custody chunks are endangered, and the upstream
   hears about it immediately instead of at store exhaustion. *)
let shed_admission t =
  match t.overload with
  | Some ov when ov.Overload.Config.shed_threshold < infinity ->
    Cache.custody_occupancy t.store
    >= ov.Overload.Config.shed_threshold *. Cache.capacity t.store
  | Some _ | None -> false

(* Early back-pressure (overload control only): escalate upstream at
   [early_bp_threshold] occupancy, before the store's high watermark —
   under a flash crowd the watermark fires too late to stop the wave
   already in flight. *)
let early_bp t =
  match t.overload with
  | Some ov when ov.Overload.Config.early_bp_threshold < infinity ->
    Cache.custody_occupancy t.store
    >= ov.Overload.Config.early_bp_threshold *. Cache.capacity t.store
  | Some _ | None -> false

let custody t slot flow (p : Packet.t) =
  match p.Packet.header with
  | Packet.Data { idx; _ } -> begin
    let key = Chunk_key.pack ~flow ~idx in
    if Hashtbl.mem t.custody_packets key then begin
      (* duplicate copy (a retransmit racing the custodied original):
         admitting it would put a second entry in the store's custody
         queue while the packet table holds one payload per (flow,
         idx), so the duplicate could never drain — it would leak
         store space until the end of the run.  Drop it; the
         custodied copy is already scheduled to move on. *)
      t.c.dropped <- t.c.dropped + 1;
      record_drop t ~link:(-1) p
    end
    else if shed_admission t then begin
      t.c.shed <- t.c.shed + 1;
      engage_local t slot ~flow ~which:`Custody;
      t.c.dropped <- t.c.dropped + 1;
      record_drop t ~link:(-1) p
    end
    else
      match Cache.put_custody t.store ~flow ~idx ~bits:p.Packet.size with
      | `Stored ->
        Hashtbl.replace t.custody_packets key p;
        t.c.custody_stored <- t.c.custody_stored + 1;
        record t (Trace.Cached { node = t.node_id; flow; idx });
        (* back-pressure engages at the high watermark, not on the first
           stored chunk — small excursions are what the store is for *)
        if Cache.above_high t.store || early_bp t then
          engage_local t slot ~flow ~which:`Custody
      | `Rejected ->
        (* the admission policy refused the chunk: shed it and make the
           upstream slow down, exactly as for threshold shedding *)
        t.c.shed <- t.c.shed + 1;
        engage_local t slot ~flow ~which:`Custody;
        t.c.dropped <- t.c.dropped + 1;
        record_drop t ~link:(-1) p
      | `Full ->
        (* the store itself overflowed: the congestion-collapse guard the
           paper's back-pressure exists to prevent *)
        engage_local t slot ~flow ~which:`Custody;
        t.c.dropped <- t.c.dropped + 1;
        record_drop t ~link:(-1) p
  end
  | Packet.Request _ | Packet.Backpressure _ -> ()

(* ------------------------------------------------------------------ *)
(* Data forwarding *)

let send_detour t flow (c : dcand) (p : Packet.t) =
  let idx =
    match p.Packet.header with
    | Packet.Data { idx; _ } -> idx
    | Packet.Request _ | Packet.Backpressure _ -> -1
  in
  let p' =
    match p.Packet.header with
    | Packet.Data d ->
      {
        p with
        Packet.header =
          Packet.Data { d with via_detour = true; detour_route = c.dc_rest };
      }
    | Packet.Request _ | Packet.Backpressure _ -> p
  in
  let est =
    match c.dc_est with
    | Some e -> e
    | None ->
      let e = estimator t c.dc_first in
      c.dc_est <- Some e;
      e
  in
  Rate_estimator.note_transit est ~bits:p.Packet.size;
  match Net.send t.net ~via:c.dc_first p' with
  | `Queued ->
    t.c.detoured <- t.c.detoured + 1;
    record t
      (Trace.Detoured { node = t.node_id; flow; idx; via = c.dc_via });
    record_enqueued t ~link:c.dc_first.Link.id p';
    `Queued
  | `Dropped ->
    t.c.dropped <- t.c.dropped + 1;
    `Dropped

(* Deflect [p] onto the best usable detour around [l]; prefers the
   flow's previously pinned detour (flowlet stability), falls back to
   custody when no detour has queue room — including when the chosen
   detour's admission fails under the candidate check (a race with new
   arrivals, or an interface that just went down). *)
let try_detour t slot flow (l : Link.t) (p : Packet.t) =
  let dk = slot_dcache t slot l in
  let fi = first_usable t dk in
  if fi < 0 then custody t slot flow p
  else begin
    let first = dk.dk_cands.(fi) in
    let pinned =
      Ft.flowlet_choose t.ft slot ~now:(now t)
        ~preferred:(Ft.Via first.dc_via)
    in
    let chosen =
      match pinned with
      | Ft.Via via ->
        if via = first.dc_via then first
        else begin
          let vi = usable_with_via t dk via in
          if vi >= 0 then dk.dk_cands.(vi)
          else first (* pinned detour filled up; re-route *)
        end
      | Ft.Primary -> first
    in
    match send_detour t flow chosen p with
    | `Queued -> () (* the detour copy went out; [p] is dead *)
    | `Dropped -> custody t slot flow p
  end

let maybe_cache_popular t slot (p : Packet.t) =
  if t.cfg.Config.icn_caching then begin
    match p.Packet.header with
    | Packet.Data { idx; _ } ->
      Cache.insert_popular t.store ~flow:(Ft.content t.ft slot) ~idx
        ~bits:p.Packet.size
    | Packet.Request _ | Packet.Backpressure _ -> ()
  end

let forward_on_primary t slot flow (l : Link.t) (p : Packet.t) =
  match Net.send t.net ~via:l p with
  | `Queued ->
    t.c.forwarded_data <- t.c.forwarded_data + 1;
    record_enqueued t ~link:l.Link.id p
  | `Dropped ->
    (* overflowing queue falls through to detours, then custody —
       congestion is handled locally even before the estimator
       notices it *)
    try_detour t slot flow l p

let forward_primary_path t slot flow (p : Packet.t) =
  maybe_cache_popular t slot p;
  let dl = Ft.data_link t.ft slot in
  if dl < 0 then begin
    match t.local_consumer with
    | Some consumer -> consumer p
    | None -> t.c.dropped <- t.c.dropped + 1
  end
  else begin
    let l = link_of t dl in
    let h = hot_of t slot l in
    if not (link_is_up t l) then
      (* primary interface is down: go straight to the detour set (the
         paper's detour phase, triggered by outage rather than rate);
         custody is the fallback when no detour survives *)
      try_detour t slot flow l p
    else
      let ph = Phase.current (hot_phase t h) in
      let effective =
        if Ft.detour_override t.ft slot && ph = Phase.Push_data then
          Phase.Detour
        else ph
      in
      match effective with
      | Phase.Push_data -> forward_on_primary t slot flow l p
      | Phase.Detour ->
        if Iface.queue_occupancy h.h_iface < h.h_limit then begin
          ignore
            (Ft.flowlet_choose t.ft slot ~now:(now t)
               ~preferred:Ft.Primary);
          forward_on_primary t slot flow l p
        end
        else try_detour t slot flow l p
      | Phase.Backpressure -> custody t slot flow p
  end

let handle_data t (p : Packet.t) =
  match p.Packet.header with
  | Packet.Data ({ flow; detour_route; _ } as d) -> begin
    match detour_route with
    | next :: rest -> begin
      (* mid-detour: source-routed towards the rejoin node.  Under
         PIT-less forwarding this branch {e is} the data plane — the
         sender stamps the whole path as the label stack. *)
      match Topology.Graph.find_link (Net.graph t.net) t.node_id next with
      | None -> t.c.dropped <- t.c.dropped + 1
      | Some l ->
        let p' =
          { p with Packet.header = Packet.Data { d with detour_route = rest } }
        in
        Rate_estimator.note_transit (estimator t l) ~bits:p.Packet.size;
        (match Net.send t.net ~via:l p' with
        | `Queued ->
          t.c.forwarded_data <- t.c.forwarded_data + 1;
          record_enqueued t ~link:l.Link.id p'
        | `Dropped -> t.c.dropped <- t.c.dropped + 1)
    end
    | [] ->
      if t.cfg.Config.pitless then begin
        (* label stack exhausted at the consumer node: deliver without
           any flow-table consultation *)
        match t.local_consumer with
        | Some consumer -> consumer p
        | None -> t.c.dropped <- t.c.dropped + 1
      end
      else begin
        let slot = Ft.find t.ft flow in
        if slot < 0 then t.c.dropped <- t.c.dropped + 1
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
  match p.Packet.header with
  | Packet.Request ({ route; _ } as r) -> begin
    match route with
    | next :: rest -> begin
      match Topology.Graph.find_link (Net.graph t.net) t.node_id next with
      | None -> t.c.dropped <- t.c.dropped + 1
      | Some l ->
        let p' =
          { p with Packet.header = Packet.Request { r with route = rest } }
        in
        ignore (Net.send t.net ~via:l p')
    end
    | [] -> begin
      match t.local_producer with
      | Some producer -> producer p
      | None -> t.c.dropped <- t.c.dropped + 1
    end
  end
  | Packet.Data _ | Packet.Backpressure _ -> ()

let handle_request t (p : Packet.t) =
  match p.Packet.header with
  | Packet.Request { flow; nc; _ } -> begin
    let slot = Ft.find t.ft flow in
    if slot < 0 then t.c.dropped <- t.c.dropped + 1
    else if
      (* ICN short-circuit: a popularity-cached copy answers the request
         locally and the request is not forwarded upstream *)
      t.cfg.Config.icn_caching
      && Cache.lookup_popular t.store ~flow:(Ft.content t.ft slot) ~idx:nc
    then begin
      t.c.cache_hits <- t.c.cache_hits + 1;
      record t (Trace.Cache_hit { node = t.node_id; flow; idx = nc });
      let data =
        Packet.data ~flow ~idx:nc ~born:(now t) t.cfg.Config.chunk_bits
      in
      forward_primary_path t slot flow data
    end
    else begin
      (* every forwarded request predicts one chunk leaving through
         the data interface (eq. 1 bookkeeping) *)
      let dl = Ft.data_link t.ft slot in
      if dl >= 0 then
        Rate_estimator.note_request
          (hot_est t (hot_of t slot (link_of t dl)))
          ~expected_bits:t.cfg.Config.chunk_bits;
      let rl = Ft.req_link t.ft slot in
      if rl >= 0 then ignore (Net.send t.net ~via:(link_of t rl) p)
      else begin
        match t.local_producer with
        | Some producer -> producer p
        | None -> t.c.dropped <- t.c.dropped + 1
      end
    end
  end
  | Packet.Data _ | Packet.Backpressure _ -> ()

let handle_backpressure t (p : Packet.t) =
  match p.Packet.header with
  | Packet.Backpressure { flow; engage } -> begin
    let slot = Ft.find t.ft flow in
    if slot < 0 then ()
    else if engage then begin
      (* paper §3.3: the upstream node first tries to bypass the
         congested area with a deeper detour, else relays the
         notification towards the sender *)
      let can_absorb =
        let dl = Ft.data_link t.ft slot in
        dl >= 0 && first_usable t (slot_dcache t slot (link_of t dl)) >= 0
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
  if t.cfg.Config.pitless then
    fun ~from:_ p ->
      match p.Packet.header with
      | Packet.Data _ -> handle_data t p
      | Packet.Request _ -> handle_request_pitless t p
      | Packet.Backpressure _ -> ()
  else
    fun ~from:_ p ->
      match p.Packet.header with
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
  let slot = Ft.find t.ft flow in
  if slot >= 0 then begin
    if Ft.bp_local t.ft slot then t.bp_locals <- t.bp_locals - 1;
    let rec strip () =
      match Cache.take_custody t.store ~flow with
      | Some (idx, _bits) ->
        Hashtbl.remove t.custody_packets (Chunk_key.pack ~flow ~idx);
        t.c.dropped <- t.c.dropped + 1;
        strip ()
      | None -> ()
    in
    strip ();
    Ft.release t.ft ~flow
  end

(* ------------------------------------------------------------------ *)
(* Periodic work *)

let tick t =
  if t.crashed then ()
  else
    Hashtbl.iter
      (fun link_id est ->
        Rate_estimator.tick est;
        let l = Topology.Graph.link (Net.graph t.net) link_id in
        let ph = phase t l in
        let before = Phase.current ph in
        let after =
          Phase.update ph ~ratio:(Rate_estimator.ratio est)
            ~detour_usable:(first_usable t (dcache_of t l) >= 0)
            ~custody_pressure:(Cache.above_high t.store)
            ~custody_drained:(Cache.below_low t.store)
        in
        if before <> after then
          record t
            (Trace.Phase_change
               { node = t.node_id; link = link_id; phase = Phase.to_string after }))
      t.estimators

let drain t =
  if t.crashed then ()
  else begin
    (* release custody one chunk per flow per round so competing flows
       share the recovered bandwidth round-robin (the paper's scheduler
       multiplexes flows in round-robin fashion) *)
    if not (Cache.custody_is_empty t.store) then begin
      let release_one flow =
        let slot = Ft.find t.ft flow in
        if slot < 0 then false
        else begin
          let dl = Ft.data_link t.ft slot in
          if dl < 0 then false
          else begin
            let l = link_of t dl in
            let h = hot_of t slot l in
            let out =
              if
                link_is_up t l
                && Iface.queue_occupancy h.h_iface < h.h_limit
              then `Primary
              else begin
                let dk = hot_dcache t h in
                let fi = first_usable t dk in
                if fi >= 0 then `Detour dk.dk_cands.(fi) else `None
              end
            in
            match out with
            | `None -> false
            | (`Primary | `Detour _) as out -> begin
              (* peek-then-commit: the chunk stays charged against the
                 store budget until the handoff is known to have
                 succeeded, so nothing can be admitted into the
                 transient gap a failed evacuation used to open (the
                 old take-then-re-put also double-counted
                 [custody_stored] and could lose the chunk outright if
                 the re-put found the store full) *)
              match Cache.peek_custody t.store ~flow with
              | None -> false
              | Some (idx, _bits) -> begin
                t.c.custody_released <- t.c.custody_released + 1;
                record t
                  (Trace.Custody_released { node = t.node_id; flow; idx });
                let key = Chunk_key.pack ~flow ~idx in
                match Hashtbl.find t.custody_packets key with
                | exception Not_found ->
                  (* store entry without a payload cannot be handed off;
                     discharge it so drain cannot spin on the flow *)
                  Cache.commit_custody t.store ~flow;
                  true
                | p ->
                  let sent =
                    match out with
                    | `Primary -> begin
                      match Net.send t.net ~via:l p with
                      | `Queued ->
                        t.c.forwarded_data <- t.c.forwarded_data + 1;
                        record_enqueued t ~link:l.Link.id p;
                        true
                      | `Dropped -> false
                    end
                    | `Detour cand -> begin
                      match send_detour t flow cand p with
                      | `Queued ->
                        (* custody left this node sideways, not down the
                           primary: the recovery path's evacuation
                           signal *)
                        record_evacuated t ~flow ~idx;
                        true
                      | `Dropped -> false
                    end
                  in
                  if sent then begin
                    Cache.commit_custody t.store ~flow;
                    Hashtbl.remove t.custody_packets key;
                    true
                  end
                  else begin
                    (* raced with new arrivals, or the interface just
                       went down: the chunk never left custody, so undo
                       the release accounting and stop draining this
                       flow for the round — never leak, never
                       double-admit *)
                    t.c.custody_released <- t.c.custody_released - 1;
                    false
                  end
              end
            end
          end
        end
      in
      let flows = Cache.flows_in_custody t.store in
      let progress = ref true in
      while !progress do
        progress := false;
        List.iter (fun flow -> if release_one flow then progress := true) flows
      done
    end;
    (* release upstream pressure once the store has drained enough *)
    if t.bp_locals > 0 && Cache.below_low t.store then
      Ft.iter t.ft (fun flow slot ->
          if Ft.bp_local t.ft slot && Cache.custody_backlog t.store ~flow = 0
          then release_local t slot ~flow ~which:`Custody)
  end

(* ------------------------------------------------------------------ *)
(* Fault recovery *)

(* Re-evaluate every flow whose primary interface is down: ride the
   surviving detours when there are any ("down or congested" links
   trigger the detour phase, paper §3.3), stop the sender when no path
   remains.  Called by the protocol layer on every link-state flip
   plus a drain, so custody held for a dead next-hop evacuates onto
   detours at the outage instant. *)
let on_link_down t _link_id =
  t.ls_gen <- t.ls_gen + 1;
  if not t.crashed then begin
    Ft.iter t.ft (fun flow slot ->
        let dl = Ft.data_link t.ft slot in
        if dl >= 0 then begin
          let l = link_of t dl in
          if not (link_is_up t l) then
            if first_usable t (slot_dcache t slot l) >= 0 then begin
              if not (Ft.failed_over t.ft slot) then begin
                Ft.set_failed_over t.ft slot true;
                t.c.failovers <- t.c.failovers + 1
              end
            end
            else engage_local t slot ~flow ~which:`Outage
        end);
    drain t
  end

let on_link_up t _link_id =
  t.ls_gen <- t.ls_gen + 1;
  if not t.crashed then begin
    Ft.iter t.ft (fun flow slot ->
        let dl = Ft.data_link t.ft slot in
        if dl >= 0 then begin
          let l = link_of t dl in
          if link_is_up t l then begin
            Ft.set_failed_over t.ft slot false;
            if Ft.bp_outage t.ft slot then
              release_local t slot ~flow ~which:`Outage
          end
          else if first_usable t (slot_dcache t slot l) >= 0 then begin
            (* primary still down but a detour came back *)
            if Ft.bp_outage t.ft slot then
              release_local t slot ~flow ~which:`Outage;
            if not (Ft.failed_over t.ft slot) then begin
              Ft.set_failed_over t.ft slot true;
              t.c.failovers <- t.c.failovers + 1
            end
          end
        end);
    drain t
  end

let crash t ~policy =
  if t.crashed then []
  else begin
    t.crashed <- true;
    (* control state is volatile under every policy; hot caches hold
       references into the estimator/phase tables being reset, so they
       die with it *)
    Ft.iter t.ft (fun _ slot ->
        Ft.set_bp_local t.ft slot false;
        Ft.set_bp_forwarded t.ft slot false;
        Ft.set_detour_override t.ft slot false;
        Ft.set_bp_outage t.ft slot false;
        Ft.set_failed_over t.ft slot false;
        Ft.set_hot t.ft slot None);
    t.bp_locals <- 0;
    Hashtbl.reset t.estimators;
    Hashtbl.reset t.phases;
    t.ls_gen <- t.ls_gen + 1;
    match policy with
    | `Preserve -> []
    | `Wipe ->
      let wiped =
        List.sort compare
          (Hashtbl.fold (fun k _ acc -> k :: acc) t.custody_packets [])
        |> List.map (fun k -> (Chunk_key.flow k, Chunk_key.idx k))
      in
      (* empty the store's custody region coherently with the table *)
      List.iter
        (fun flow ->
          let rec strip () =
            match Cache.take_custody t.store ~flow with
            | Some _ -> strip ()
            | None -> ()
          in
          strip ())
        (Cache.flows_in_custody t.store);
      Hashtbl.reset t.custody_packets;
      t.c.custody_wiped <- t.c.custody_wiped + List.length wiped;
      wiped
  end

let restart t = t.crashed <- false

let is_crashed t = t.crashed

let phase_of_link t link_id =
  Option.map Phase.current (Hashtbl.find_opt t.phases link_id)

let anticipated_rate_of_link t link_id =
  Option.map Rate_estimator.anticipated_rate
    (Hashtbl.find_opt t.estimators link_id)

let ratio_of_link t link_id =
  Option.map Rate_estimator.ratio (Hashtbl.find_opt t.estimators link_id)

let estimator_links t =
  List.sort Int.compare
    (Hashtbl.fold (fun link_id _ acc -> link_id :: acc) t.estimators [])

let bp_active_flows t =
  let n = ref 0 in
  Ft.iter t.ft (fun _ slot ->
      if Ft.bp_local t.ft slot || Ft.bp_forwarded t.ft slot then incr n);
  !n

let flow_entries_live t = Ft.live t.ft
let flow_entries_peak t = Ft.peak t.ft
let flow_entries_recycled t = Ft.recycled t.ft
let flow_table_bytes t = Ft.approx_bytes t.ft

let cache t = t.store
let counters t = t.c
let node t = t.node_id
let custody_packet_count t = Hashtbl.length t.custody_packets

let phase_transitions t =
  Hashtbl.fold (fun _ p acc -> acc + Phase.transitions p) t.phases 0
