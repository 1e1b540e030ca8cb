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
   limits, and the first hop's port.  The static conditions — depth
   bound, every hop up — are folded into cache membership; only queue
   room is re-checked per scan, so the scan allocates nothing. *)
type dcand = {
  dc_first : Link.t;
  dc_via : Topology.Node.id;       (* first hop's dst: the flowlet pin *)
  dc_rest : Topology.Node.id list; (* source route after the first hop *)
  dc_ifaces : Iface.t array;       (* every hop, candidate order *)
  dc_limits : float array;         (* threshold * capacity per hop *)
  dc_port : port;                  (* first hop's control state *)
}

(* Control state of one outgoing interface, one per out-link, built at
   [create].  The estimator appears on first use and the phase on the
   estimator's first tick (or the first packet forwarded), the instants
   the sampler's [estimator_links]/[iface_phase] probes observe; [crash]
   clears both in place.  A port is on the walk ([walking]) from the
   first bit it notes until a tick leaves it idle in push-data; off the
   walk its estimator is current as of tick [synced] and owes one idle
   interval for every tick since (see [catch_up]).  The detour
   candidates are cached by
   generation: every link-state flip and every crash bumps [ls_gen], so
   a stale [dk_gen] means the static filter must be recomputed.
   Between bumps, up-ness cannot change (all transitions go through
   [on_link_down]/[on_link_up]).  [blocked] marks a port a drain found
   with no exit (primary down or full, no usable detour) for the rest of
   that drain: mid-drain, queues only fill and neither link state nor
   neighbour pressure moves. *)
and port = {
  p_link : Link.t;
  mutable est : Rate_estimator.t option;
  mutable phase : Phase.t option;
  mutable walking : bool;
  mutable synced : int;            (* registry tick count, off the walk *)
  mutable dk_gen : int;
  mutable dk_cands : dcand array;
  mutable blocked : int;           (* [drains] value when found exitless *)
}

(* Hot-path state resolved once per (flow, data link) instead of per
   packet: interface handle, queue-admission limit and port.  Dropped
   whenever the flow's link changes (reroute). *)
type hot = {
  h_link : Link.t;
  h_iface : Iface.t;
  h_limit : float;                 (* threshold * capacity of h_iface *)
  h_port : port;
}

(* A run's periodic-work registry: the count of ticks closed so far and,
   each in ascending node id, the routers with a port on the walk and
   the routers holding custody or a local back-pressure engage.  A
   router created without one keeps its own tick count, advanced by
   [tick], and lists itself nowhere. *)
type registry = {
  mutable ticks : int;
  tick_nodes : int array;
  mutable tick_n : int;
  drain_nodes : int array;
  mutable drain_n : int;
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
  ports : port array;             (* one per out-link, ascending link id *)
  reg : registry option;
  mutable own_ticks : int;        (* the tick count without [reg] *)
  mutable tick_listed : bool;     (* in [reg]'s tick_nodes *)
  mutable drain_listed : bool;    (* in [reg]'s drain_nodes *)
  drain_flows : int array ref;    (* custody snapshot, reused per drain *)
  mutable drains : int;           (* drains that found custody, see port *)
  c : counters;
  mutable ls_gen : int;           (* link-state generation, see port *)
  mutable bp_locals : int;        (* entries with bp_local = true *)
  mutable local_producer : (Packet.t -> unit) option;
  mutable local_consumer : (Packet.t -> unit) option;
  mutable crashed : bool;
  (* overload control; [None] is the legacy path throughout *)
  overload : Overload.Config.t option;
  mutable neighbor_pressure : (Topology.Node.id -> float) option;
}

let registry ~nodes =
  if nodes < 1 then invalid_arg "Router.registry: nodes < 1";
  {
    ticks = 0;
    tick_nodes = Array.make nodes 0;
    tick_n = 0;
    drain_nodes = Array.make nodes 0;
    drain_n = 0;
  }

let create ~cfg ~net ~node ~detours ?link_state ?trace ?overload ?registry
    () =
  (match registry with
  | Some r when node >= Array.length r.tick_nodes ->
    invalid_arg "Router.create: node outside the registry"
  | Some _ | None -> ());
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
    ports =
      Topology.Graph.out_links (Net.graph net) node
      |> List.sort (fun (a : Link.t) (b : Link.t) ->
             Int.compare a.Link.id b.Link.id)
      |> List.map (fun l ->
             { p_link = l; est = None; phase = None; walking = false;
               synced = 0; dk_gen = -1; dk_cands = [||]; blocked = -1 })
      |> Array.of_list;
    reg = registry;
    own_ticks = 0;
    tick_listed = false;
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

(* link id -> port: a binary search over the id-sorted ports, so the
   map costs no memory beyond the ports themselves *)
let rec port_search ports id lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let k = ports.(mid).p_link.Link.id in
    if k = id then mid
    else if k < id then port_search ports id (mid + 1) hi
    else port_search ports id lo mid

let port_index t id = port_search t.ports id 0 (Array.length t.ports)

let port_of t (l : Link.t) =
  let i = port_index t l.Link.id in
  if i < 0 then invalid_arg "Router: link does not leave this node";
  t.ports.(i)

(* [node] into the ascending [nodes.(0 .. n - 1)]; the new length *)
let insert_sorted nodes n node =
  let i = ref n in
  while !i > 0 && nodes.(!i - 1) > node do
    nodes.(!i) <- nodes.(!i - 1);
    decr i
  done;
  nodes.(!i) <- node;
  n + 1

let ticks t = match t.reg with Some r -> r.ticks | None -> t.own_ticks

(* Off the walk, replay the idle intervals the skipped ticks owed *)
let catch_up t p e =
  if not p.walking then begin
    Rate_estimator.replay_idle e (ticks t - p.synced);
    p.synced <- ticks t
  end

let join_walk t p =
  p.walking <- true;
  match t.reg with
  | Some r when not t.tick_listed ->
    t.tick_listed <- true;
    r.tick_n <- insert_sorted r.tick_nodes r.tick_n t.node_id
  | Some _ | None -> ()

(* A custody store or a local engage gives the next drains work *)
let list_drain t =
  match t.reg with
  | Some r when not t.drain_listed ->
    t.drain_listed <- true;
    r.drain_n <- insert_sorted r.drain_nodes r.drain_n t.node_id
  | Some _ | None -> ()

(* The estimator of a port about to note bits: current, and on the
   walk so the next tick runs its full step *)
let estimator t p =
  match p.est with
  | Some e when p.walking -> e
  | Some e ->
    catch_up t p e;
    join_walk t p;
    e
  | None ->
    let e =
      Rate_estimator.create ~ti:t.cfg.Config.ti
        ~alpha:t.cfg.Config.estimator_alpha
        ~capacity:(p.p_link.Link.capacity *. t.cfg.Config.speed_factor)
    in
    p.est <- Some e;
    join_walk t p;
    e

(* A port's estimator for reading, current as of the last tick *)
let current_estimator t p =
  (match p.est with Some e -> catch_up t p e | None -> ());
  p.est

let phase t p =
  match p.phase with
  | Some ph -> ph
  | None ->
    let ph =
      Phase.create ~engage:t.cfg.Config.engage_ratio
        ~release:t.cfg.Config.release_ratio
    in
    p.phase <- Some ph;
    ph

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
           dc_port = port_of t cand.Detour_table.first_link;
         })
       usable)

let cands t p =
  if p.dk_gen <> t.ls_gen then begin
    p.dk_cands <- build_cands t p.p_link;
    p.dk_gen <- t.ls_gen
  end;
  p.dk_cands

(* Detour refusal into pressured neighbours: with overload control on,
   a candidate whose first hop lands on a neighbour already above the
   configured custody-occupancy fraction is unusable — deflecting load
   into a store that is itself shedding only spreads the collapse.
   The pressure function is installed by the protocol layer (it owns
   the router array). *)
let pressure_ok t (c : dcand) =
  match t.overload, t.neighbor_pressure with
  | Some ov, Some pressure_of
    when ov.Overload.Config.neighbor_pressure < infinity ->
    pressure_of c.dc_via < ov.Overload.Config.neighbor_pressure
  | (Some _ | None), _ -> true

let rec room_from (c : dcand) i =
  i >= Array.length c.dc_ifaces
  || Iface.queue_occupancy c.dc_ifaces.(i) < c.dc_limits.(i)
     && room_from c (i + 1)

(* The scans are top-level recursions, not local closures, so a scan
   allocates nothing.  [usable_from] returns the first candidate with
   queue room on every hop and an unpressured first neighbour; -1 when
   there is none, -2 when there is none but neighbour pressure alone
   turned one away. *)
let rec usable_from t cs i refused =
  if i >= Array.length cs then if refused then -2 else -1
  else if not (room_from cs.(i) 0) then usable_from t cs (i + 1) refused
  else if pressure_ok t cs.(i) then i
  else usable_from t cs (i + 1) true

let rec via_from t cs via i =
  if i >= Array.length cs then -1
  else if cs.(i).dc_via = via && room_from cs.(i) 0 && pressure_ok t cs.(i)
  then i
  else via_from t cs via (i + 1)

(* A probe: counts nothing, so ticks and fault handling can look *)
let first_usable t p = usable_from t (cands t p) 0 false

(* A real chunk asking for a detour now (a forwarded chunk, or one
   drain round's evacuation attempt): when neighbour pressure alone
   denies it one, that is one refusal *)
let detour_for t p =
  let i = first_usable t p in
  if i = -2 then t.c.detours_refused <- t.c.detours_refused + 1;
  i

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
        h_port = port_of t l;
      }
    in
    Ft.set_hot t.ft slot (Some h);
    h

(* ------------------------------------------------------------------ *)
(* Back-pressure signalling *)

let signal_upstream t slot ~flow ~engage =
  let pkt = Packet.backpressure ~flow ~engage in
  if engage then t.c.bp_engages <- t.c.bp_engages + 1
  else t.c.bp_releases <- t.c.bp_releases + 1;
  (match t.trace with
  | Some tr ->
    Trace.record tr ~time:(now t)
      (Trace.Bp_signal { node = t.node_id; flow; engage })
  | None -> ());
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
      t.bp_locals <- t.bp_locals + 1;
      list_drain t
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
        list_drain t;
        (match t.trace with
        | Some tr ->
          Trace.record tr ~time:(now t)
            (Trace.Cached { node = t.node_id; flow; idx })
        | None -> ());
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
  Rate_estimator.note_transit (estimator t c.dc_port) ~bits:p.Packet.size;
  match Net.send t.net ~via:c.dc_first p' with
  | `Queued ->
    t.c.detoured <- t.c.detoured + 1;
    (match t.trace with
    | Some tr ->
      Trace.record tr ~time:(now t)
        (Trace.Detoured { node = t.node_id; flow; idx; via = c.dc_via })
    | None -> ());
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
  let pt = port_of t l in
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
          let vi = via_from t pt.dk_cands via 0 in
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
      let ph = Phase.current (phase t h.h_port) in
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
        Rate_estimator.note_transit (estimator t (port_of t l))
          ~bits:p.Packet.size;
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
      (match t.trace with
      | Some tr ->
        Trace.record tr ~time:(now t)
          (Trace.Cache_hit { node = t.node_id; flow; idx = nc })
      | None -> ());
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
          (estimator t (hot_of t slot (link_of t dl)).h_port)
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
        dl >= 0 && first_usable t (port_of t (link_of t dl)) >= 0
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
    (* an empty store holds no queue, so skip the probe *)
    if not (Cache.custody_is_empty t.store) then strip ();
    Ft.release t.ft ~flow
  end

(* ------------------------------------------------------------------ *)
(* Periodic work *)

(* One interface's full step: close the interval, then run the phase
   machine.  The detour probe runs only where [Phase.update] reads it:
   in detour, in back-pressure, and in push-data at or above engage. *)
let tick_port t p est =
  Rate_estimator.tick est;
  let ph = phase t p in
  let before = Phase.current ph in
  let ratio = Rate_estimator.ratio est in
  let after =
    Phase.update ph ~ratio
      ~detour_usable:
        ((before <> Phase.Push_data || ratio >= t.cfg.Config.engage_ratio)
        && first_usable t p >= 0)
      ~custody_pressure:(Cache.above_high t.store)
      ~custody_drained:(Cache.below_low t.store)
  in
  if before <> after then
    match t.trace with
    | Some tr ->
      Trace.record tr ~time:(now t)
        (Trace.Phase_change
           {
             node = t.node_id;
             link = p.p_link.Link.id;
             phase = Phase.to_string after;
           })
    | None -> ()

(* Only ports on the walk are stepped.  A port that ends a step idle
   in push-data leaves it: push-data after any update means ratio <
   engage, and an interval with no bits multiplies r_a by 1 - alpha, so
   until the port notes bits again every tick would only decay r_a and
   [Phase.update] would return push-data.  [catch_up] replays those
   decays when the estimator is next noted or read.  Returns whether a
   port is still on the walk (a crashed router steps none, but a port
   noted while crashed stays on it). *)
let walk t =
  let on = ref false in
  for i = 0 to Array.length t.ports - 1 do
    let p = t.ports.(i) in
    if p.walking then begin
      (match p.est with
      | Some est when not t.crashed -> (
        tick_port t p est;
        match p.phase with
        | Some ph when Phase.current ph = Phase.Push_data ->
          p.walking <- false;
          p.synced <- ticks t
        | Some _ | None -> ())
      | Some _ | None -> ());
      if p.walking then on := true
    end
  done;
  !on

let tick t =
  if Option.is_some t.reg then
    invalid_arg "Router.tick: the router belongs to a registry";
  t.own_ticks <- t.own_ticks + 1;
  ignore (walk t)

(* The walk notes nothing, so the list cannot grow during the sweep *)
let tick_sweep reg routers =
  reg.ticks <- reg.ticks + 1;
  let kept = ref 0 in
  for i = 0 to reg.tick_n - 1 do
    let r = routers.(reg.tick_nodes.(i)) in
    if walk r then begin
      reg.tick_nodes.(!kept) <- r.node_id;
      incr kept
    end
    else r.tick_listed <- false
  done;
  reg.tick_n <- !kept

(* What one release attempt leaves for the rest of the drain: [Done]
   holds until it ends, so a later attempt would have no effect *)
type release = Released | Retry | Done

(* Hand [flow]'s oldest custody chunk to its primary interface, or to a
   detour when the primary is down or full.  Peek-then-commit: the chunk
   stays charged against the store budget until the handoff is known to
   have succeeded, so nothing can be admitted into the gap a failed
   evacuation would open.  [Retry] when the attempt had a side effect (a
   refusal counted, a send dropped) that the next round would repeat. *)
let release_one t flow =
  let slot = Ft.find t.ft flow in
  let dl = if slot < 0 then -1 else Ft.data_link t.ft slot in
  if dl < 0 then Done
  else begin
    let l = link_of t dl in
    let h = hot_of t slot l in
    let pt = h.h_port in
    let idx =
      if pt.blocked = t.drains then -1 else Cache.peek_custody t.store ~flow
    in
    if idx < 0 then Done
    else begin
      let primary =
        link_is_up t l && Iface.queue_occupancy h.h_iface < h.h_limit
      in
      (* the exit: the primary, else this detour candidate *)
      let ci = if primary then 0 else detour_for t pt in
      if ci = -1 then (pt.blocked <- t.drains; Done)
      else if ci < 0 then Retry
      else begin
        t.c.custody_released <- t.c.custody_released + 1;
        (match t.trace with
        | Some tr ->
          Trace.record tr ~time:(now t)
            (Trace.Custody_released { node = t.node_id; flow; idx })
        | None -> ());
        let key = Chunk_key.pack ~flow ~idx in
        match Hashtbl.find t.custody_packets key with
        | exception Not_found ->
          (* store entry without a payload cannot be handed off;
             discharge it so drain cannot spin on the flow *)
          Cache.commit_custody t.store ~flow;
          Released
        | p ->
          let sent =
            if primary then begin
              match Net.send t.net ~via:l p with
              | `Queued ->
                t.c.forwarded_data <- t.c.forwarded_data + 1;
                record_enqueued t ~link:l.Link.id p;
                true
              | `Dropped -> false
            end
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
            Hashtbl.remove t.custody_packets key;
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
      Ft.iter t.ft (fun flow slot ->
          if Ft.bp_local t.ft slot && Cache.custody_backlog t.store ~flow = 0
          then release_local t slot ~flow ~which:`Custody)
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
let drain_sweep reg routers =
  let kept = ref 0 in
  for i = 0 to reg.drain_n - 1 do
    let r = routers.(reg.drain_nodes.(i)) in
    drain r;
    if drain_work r then begin
      reg.drain_nodes.(!kept) <- r.node_id;
      incr kept
    end
    else r.drain_listed <- false
  done;
  reg.drain_n <- !kept

let iter_custody reg routers f =
  for i = 0 to reg.drain_n - 1 do
    f routers.(reg.drain_nodes.(i))
  done

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
            if first_usable t (port_of t l) >= 0 then begin
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
          else if first_usable t (port_of t l) >= 0 then begin
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
    (* control state is volatile under every policy; hot caches point
       at the ports, whose estimators and phases are cleared in place *)
    Ft.iter t.ft (fun _ slot ->
        Ft.set_bp_local t.ft slot false;
        Ft.set_bp_forwarded t.ft slot false;
        Ft.set_detour_override t.ft slot false;
        Ft.set_bp_outage t.ft slot false;
        Ft.set_failed_over t.ft slot false);
    t.bp_locals <- 0;
    Array.iter
      (fun p ->
        p.est <- None;
        p.phase <- None;
        p.walking <- false)
      t.ports;
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
      let n = Cache.custody_flows t.store t.drain_flows in
      for i = 0 to n - 1 do
        let flow = !(t.drain_flows).(i) in
        while Cache.peek_custody t.store ~flow >= 0 do
          Cache.commit_custody t.store ~flow
        done
      done;
      Hashtbl.reset t.custody_packets;
      t.c.custody_wiped <- t.c.custody_wiped + List.length wiped;
      wiped
  end

let restart t = t.crashed <- false

let is_crashed t = t.crashed

let port_opt t link_id =
  let i = port_index t link_id in
  if i < 0 then None else Some t.ports.(i)

let phase_of_link t link_id =
  Option.bind (port_opt t link_id) (fun p -> Option.map Phase.current p.phase)

let anticipated_rate_of_link t link_id =
  Option.bind (port_opt t link_id) (fun p ->
      Option.map Rate_estimator.anticipated_rate (current_estimator t p))

let ratio_of_link t link_id =
  Option.bind (port_opt t link_id) (fun p ->
      Option.map Rate_estimator.ratio (current_estimator t p))

let estimator_links t =
  Array.fold_right
    (fun p acc -> if Option.is_some p.est then p.p_link.Link.id :: acc else acc)
    t.ports []

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
  Array.fold_left
    (fun acc p ->
      match p.phase with Some ph -> acc + Phase.transitions ph | None -> acc)
    0 t.ports
