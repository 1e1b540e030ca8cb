type violation = { time : float; checker : string; detail : string }

type t = {
  limit : int;
  mutable total : int;
  mutable kept : violation list;  (* newest first, at most [limit] *)
  mutable probes : (float -> unit) list;
  mutable notify : (violation -> unit) option;
}

let create ?(limit = 64) () =
  { limit; total = 0; kept = []; probes = []; notify = None }

let violate t ~time ~checker detail =
  t.total <- t.total + 1;
  let v = { time; checker; detail } in
  if t.total <= t.limit then t.kept <- v :: t.kept;
  match t.notify with Some f -> f v | None -> ()

let on_violation t f = t.notify <- Some f

let violations t = List.rev t.kept
let ok t = t.total = 0

let report t =
  if ok t then "ok: no invariant violations"
  else
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "%d invariant violation%s%s:\n" t.total
         (if t.total = 1 then "" else "s")
         (if t.total > t.limit then
            Printf.sprintf " (first %d shown)" t.limit
          else ""));
    List.iter
      (fun v ->
        Buffer.add_string b
          (Printf.sprintf "  [%.6f] %s: %s\n" v.time v.checker v.detail))
      (violations t);
    Buffer.contents b

let add_probe t f = t.probes <- f :: t.probes
let probe t ~time = List.iter (fun f -> f time) t.probes

(* checker tables are keyed by packed pairs (Chunk_key) rather than
   structural tuples so lookups on the trace hot path avoid the
   polymorphic hasher and per-event key allocation *)
let pack = Chunksim.Chunk_key.pack

(* a crash wipes a router's control state without emitting transitions
   or releases, so per-node checker state must be forgotten with it *)
let forget_node tbl node =
  let doomed =
    Hashtbl.fold
      (fun k _ acc ->
        if Chunksim.Chunk_key.flow k = node then k :: acc else acc)
      tbl []
  in
  List.iter (Hashtbl.remove tbl) doomed

(* ------------------------------------------------------------------ *)
(* Phase-transition legality (DESIGN §1 table).  Every interface
   starts in push-data; each of the three phases may move to either of
   the other two (engage, recovery, and the backpressure -> detour
   re-route once custody drains), so the only illegal record is a
   self-transition — [Phase.set] must not emit an event when the state
   does not change. *)

let phase_legality t =
  let state : (int, Chunksim.Trace.phase) Hashtbl.t = Hashtbl.create 64 in
  fun time event ->
    match event with
    | Chunksim.Trace.Node_fault { node; up = false } -> forget_node state node
    | Chunksim.Trace.Phase_change { node; link; phase } ->
      let key = pack ~flow:node ~idx:link in
      let prev =
        Option.value ~default:Chunksim.Trace.Push_data
          (Hashtbl.find_opt state key)
      in
      if phase = prev then
        violate t ~time ~checker:"phase-legality"
          (Printf.sprintf "node %d link %d: self-transition to %S recorded"
             node link (Chunksim.Trace.phase_name phase));
      Hashtbl.replace state key phase
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Back-pressure signal ordering.  A router keeps at most two engage
   flags per flow (its own custody-pressure engage plus one relayed
   from downstream), each guarded, so per (node, flow) the outstanding
   engage balance stays within [0, 2] and a release is only legal when
   an engage is outstanding. *)

let bp_ordering t =
  let balance : (int, int) Hashtbl.t = Hashtbl.create 64 in
  fun time event ->
    match event with
    | Chunksim.Trace.Node_fault { node; up = false } -> forget_node balance node
    | Chunksim.Trace.Bp_signal { node; flow; engage } ->
      let b =
        Option.value ~default:0
          (Hashtbl.find_opt balance (pack ~flow:node ~idx:flow))
      in
      let b' = if engage then b + 1 else b - 1 in
      if b' > 2 then
        violate t ~time ~checker:"bp-ordering"
          (Printf.sprintf
             "node %d flow %d: %d outstanding back-pressure engages (max 2)"
             node flow b')
      else if b' < 0 then
        violate t ~time ~checker:"bp-ordering"
          (Printf.sprintf "node %d flow %d: release without outstanding engage"
             node flow);
      Hashtbl.replace balance (pack ~flow:node ~idx:flow) (max 0 (min 2 b'))
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Custody ledger vs cache occupancy: the router's custody packet
   table and its content store's custody region must agree on how many
   chunks are in custody at every probe. *)

let custody_ledger t ~name read =
  add_probe t (fun time ->
      let packets, backlog = read () in
      if packets <> backlog then
        violate t ~time ~checker:"custody-ledger"
          (Printf.sprintf
             "%s: custody packet table holds %d, cache custody region holds %d"
             name packets backlog))

(* ------------------------------------------------------------------ *)

module Conservation = struct
  type coll = t

  type t = {
    coll : coll;
    lossy : bool;
    pushed : (int, int) Hashtbl.t;
    delivered : (int, int) Hashtbl.t;
    destroyed : (int, int) Hashtbl.t;
    mutable pushes : int;
    mutable deliveries : int;
    mutable drops : int;
    mutable fault_losses : int;
  }

  let create ?(lossy = false) coll =
    {
      coll;
      lossy;
      pushed = Hashtbl.create 1024;
      delivered = Hashtbl.create 1024;
      destroyed = Hashtbl.create 64;
      pushes = 0;
      deliveries = 0;
      drops = 0;
      fault_losses = 0;
    }

  let count tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

  let note_push t ~flow ~idx =
    t.pushes <- t.pushes + 1;
    let k = pack ~flow ~idx in
    Hashtbl.replace t.pushed k (count t.pushed k + 1)

  let note_delivery t ~time ~flow ~idx =
    t.deliveries <- t.deliveries + 1;
    let k = pack ~flow ~idx in
    let d = count t.delivered k + 1 in
    Hashtbl.replace t.delivered k d;
    let p = count t.pushed k in
    if d > p then
      violate t.coll ~time ~checker:"conservation"
        (if p = 0 then
           Printf.sprintf "flow %d chunk %d delivered but never sent" flow idx
         else
           Printf.sprintf "flow %d chunk %d delivered %d times but sent %d"
             flow idx d p)

  (* cache hits synthesise a fresh copy of the chunk out of the
     content store — count them as pushes or delivery of the copy
     would look like conjured data; a dropped data packet is a copy
     gone for good *)
  let handler t =
    fun time event ->
      ignore time;
      match event with
      | Chunksim.Trace.Cache_hit { flow; idx; _ } -> note_push t ~flow ~idx
      | Chunksim.Trace.Dropped { packet = Chunksim.Trace.Data; _ } ->
        t.drops <- t.drops + 1
      | _ -> ()

  let pushes t = t.pushes
  let deliveries t = t.deliveries

  (* fault attribution: a destroyed chunk copy must trace back to a
     distinct push — more copies destroyed+delivered than were ever
     sent means the fault path conjured or double-counted data *)
  let note_fault_loss t ~time ~flow ~idx =
    t.fault_losses <- t.fault_losses + 1;
    let k = pack ~flow ~idx in
    let dead = count t.destroyed k + 1 in
    Hashtbl.replace t.destroyed k dead;
    let p = count t.pushed k and d = count t.delivered k in
    if d + dead > p then
      violate t.coll ~time ~checker:"conservation"
        (Printf.sprintf
           "flow %d chunk %d: %d delivered + %d fault-destroyed exceeds %d sent"
           flow idx d dead p)


  let finish t ~time ~quiescent ~in_custody ~wire_losses =
    if quiescent then
      if wire_losses = 0 && t.fault_losses = 0 && not t.lossy then begin
        if t.pushes <> t.deliveries + in_custody + t.drops then
          violate t.coll ~time ~checker:"conservation"
            (Printf.sprintf
               "at quiescence: %d chunks sent <> %d delivered + %d in \
                custody + %d dropped"
               t.pushes t.deliveries in_custody t.drops)
      end
      else begin
        if t.deliveries + in_custody > t.pushes then
          violate t.coll ~time ~checker:"conservation"
            (Printf.sprintf
               "at quiescence: %d delivered + %d in custody exceeds %d sent"
               t.deliveries in_custody t.pushes);
        (* with faults attributed exactly, the buckets must still fit
           inside the pushes even before drops are added in *)
        if
          (not t.lossy) && wire_losses = 0
          && t.deliveries + in_custody + t.fault_losses > t.pushes
        then
          violate t.coll ~time ~checker:"conservation"
            (Printf.sprintf
               "at quiescence: %d delivered + %d in custody + %d \
                fault-destroyed exceeds %d sent"
               t.deliveries in_custody t.fault_losses t.pushes)
      end
end
