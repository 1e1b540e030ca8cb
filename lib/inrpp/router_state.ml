(* The router record and the primitives every router layer calls;
   [Custody] and [Router] call down into it, and it calls neither. *)

module Link = Topology.Link
module Packet = Chunksim.Packet
module Net = Chunksim.Net
module Iface = Chunksim.Iface
module Cache = Chunksim.Cache
module Chunk_key = Chunksim.Chunk_key
module Trace = Chunksim.Trace
module Ft = Flow_table

(* int keys compared inline, not through polymorphic compare; the same
   buckets and resizes as a stdlib [Hashtbl] *)
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

type t = {
  s : Port.set;                   (* the interfaces' control plane *)
  (* per-flow forwarding state: next hops as port indices, flag
     bitfield and flowlet pin, paged slot records with free-list
     recycling (see Flow_table) *)
  ft : Ft.t;
  contents : int array;           (* content keys by flow, one per run *)
  store : Cache.t;
  custody_packets : Packet.t Itbl.t;  (* Chunk_key-packed; see Custody *)
  mutable drain_listed : bool;    (* in the registry's drain_nodes *)
  drain_flows : int array ref;    (* custody snapshot, reused per drain *)
  mutable drains : int;           (* drains that found custody, see port *)
  c : counters;
  mutable bp_locals : int;        (* entries with bp_local = true *)
  mutable local_producer : (Packet.t -> unit) option;
  mutable local_consumer : (Packet.t -> unit) option;
  mutable crashed : bool;
}

let now t = Port.now t.s

(* The popularity cache's key for [flow]'s chunks *)
let content t flow =
  if flow < Array.length t.contents then t.contents.(flow) else flow

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

(* A real chunk asking for a detour now (a forwarded chunk, or one
   drain round's evacuation attempt): when neighbour pressure alone
   denies it one, that is one refusal *)
let detour_for t p =
  let i = Port.first_usable t.s p in
  if i = -2 then t.c.detours_refused <- t.c.detours_refused + 1;
  i

(* ------------------------------------------------------------------ *)
(* Back-pressure signalling and sends *)

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
