(* The custody ledger (paper §3.3): the store's custody region and
   [custody_packets], each held chunk's payload by packed (flow, idx).
   No other module writes either, and every site here changes both. *)

open Router_state

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

let admit t slot flow (p : Packet.t) =
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

(* Purge [flow]'s custody as drops, oldest first.  Top level, not a
   local closure, so a release allocates nothing. *)
let rec strip t flow =
  let idx = Cache.peek_custody t.store ~flow in
  if idx >= 0 then begin
    let key = Chunk_key.pack ~flow ~idx in
    let p = Itbl.find t.custody_packets key in
    Cache.commit_custody t.store ~flow;
    Itbl.remove t.custody_packets key;
    drop t ~link:(-1) p;
    strip t flow
  end

(* ------------------------------------------------------------------ *)
(* Drain rounds *)

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
let drain_sweep (reg : Port.registry) routers =
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

let iter_custody (reg : Port.registry) routers f =
  for i = 0 to reg.Port.drain_n - 1 do
    f routers.(reg.Port.drain_nodes.(i))
  done

(* ------------------------------------------------------------------ *)
(* Crash wipe and read-out *)

(* Empty the ledger and return what it held as sorted (flow, idx)
   pairs, read from the store: its flows come ascending, but a
   retransmit can sit behind a later chunk of its flow *)
let wipe t =
  let wiped = ref [] in
  for i = 0 to Cache.custody_flows t.store t.drain_flows - 1 do
    let flow = !(t.drain_flows).(i) in
    for _ = 1 to Cache.custody_backlog t.store ~flow do
      wiped := (flow, Cache.peek_custody t.store ~flow) :: !wiped;
      Cache.commit_custody t.store ~flow
    done
  done;
  Itbl.reset t.custody_packets;
  t.c.custody_wiped <- t.c.custody_wiped + List.length !wiped;
  List.sort compare !wiped

let ledger t =
  let backlog = ref 0 in
  for i = 0 to Cache.custody_flows t.store t.drain_flows - 1 do
    backlog :=
      !backlog + Cache.custody_backlog t.store ~flow:!(t.drain_flows).(i)
  done;
  (Itbl.length t.custody_packets, !backlog)
