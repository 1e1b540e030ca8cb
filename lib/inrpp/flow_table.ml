(* Struct-of-arrays slot table — see the .mli for the contract.  The
   arrays grow by doubling and never shrink; a released slot is
   threaded onto a free list through [flow_of] (live slots hold the
   flow id >= 0, free slots hold [-2 - next] so the encoding never
   collides with a flow id). *)

type route =
  | Primary
  | Via of int

(* flag bits, one byte per slot *)
let f_bp_local = 1
let f_bp_forwarded = 2
let f_detour_override = 4
let f_bp_outage = 8
let f_failed_over = 16

type 'hot t = {
  gap : float;
  slots : (int, int) Hashtbl.t;    (* flow -> slot; owns iteration order *)
  mutable flow_of : int array;     (* slot -> flow, or free-list thread *)
  mutable content : int array;
  mutable data_link : int array;   (* link id, -1 = none *)
  mutable req_link : int array;
  mutable flags : Bytes.t;
  mutable fl_last : float array;   (* unboxed; nan = no flowlet pin yet *)
  mutable fl_route : int array;    (* -1 = Primary, else Via node id *)
  mutable hots : 'hot option array;
  mutable next : int;              (* first never-used slot *)
  mutable free : int;              (* free-list head, -1 = empty *)
  mutable peak : int;
  mutable recycled : int;
}

let create ~gap () =
  if gap < 0. then invalid_arg "Flow_table.create: gap < 0";
  {
    gap;
    slots = Hashtbl.create 16;
    flow_of = [||];
    content = [||];
    data_link = [||];
    req_link = [||];
    flags = Bytes.empty;
    fl_last = [||];
    fl_route = [||];
    hots = [||];
    next = 0;
    free = -1;
    peak = 0;
    recycled = 0;
  }

let grow t =
  let n = Array.length t.flow_of in
  let m = max 16 (2 * n) in
  let grow_i a = Array.append a (Array.make (m - n) (-1)) in
  t.flow_of <- grow_i t.flow_of;
  t.content <- grow_i t.content;
  t.data_link <- grow_i t.data_link;
  t.req_link <- grow_i t.req_link;
  t.fl_route <- grow_i t.fl_route;
  let fl = Array.make m Float.nan in
  Array.blit t.fl_last 0 fl 0 n;
  t.fl_last <- fl;
  let fb = Bytes.make m '\000' in
  Bytes.blit t.flags 0 fb 0 n;
  t.flags <- fb;
  let hb = Array.make m None in
  Array.blit t.hots 0 hb 0 n;
  t.hots <- hb

let alloc t =
  if t.free >= 0 then begin
    let slot = t.free in
    t.free <- -2 - t.flow_of.(slot);
    slot
  end
  else begin
    if t.next >= Array.length t.flow_of then grow t;
    let slot = t.next in
    t.next <- t.next + 1;
    slot
  end

let flag t slot bit = Char.code (Bytes.unsafe_get t.flags slot) land bit <> 0

let set_flag t slot bit v =
  let cur = Char.code (Bytes.unsafe_get t.flags slot) in
  let next = if v then cur lor bit else cur land lnot bit in
  Bytes.unsafe_set t.flags slot (Char.unsafe_chr next)

let find t flow =
  match Hashtbl.find t.slots flow with
  | slot -> slot
  | exception Not_found -> -1

let install t ~flow ~content ~data_link ~req_link =
  if flow < 0 then invalid_arg "Flow_table.install: flow < 0";
  let slot =
    match Hashtbl.find_opt t.slots flow with
    | Some slot -> slot (* reinstall: keep the slot and the flowlet pin *)
    | None ->
      let slot = alloc t in
      Hashtbl.replace t.slots flow slot;
      t.flow_of.(slot) <- flow;
      t.fl_last.(slot) <- Float.nan;
      t.fl_route.(slot) <- -1;
      let live = Hashtbl.length t.slots in
      if live > t.peak then t.peak <- live;
      slot
  in
  t.content.(slot) <- content;
  t.data_link.(slot) <- data_link;
  t.req_link.(slot) <- req_link;
  Bytes.unsafe_set t.flags slot '\000';
  t.hots.(slot) <- None;
  slot

let release t ~flow =
  match Hashtbl.find_opt t.slots flow with
  | None -> ()
  | Some slot ->
    Hashtbl.remove t.slots flow;
    t.hots.(slot) <- None;
    t.flow_of.(slot) <- -2 - t.free;
    t.free <- slot;
    t.recycled <- t.recycled + 1

let flow_of t slot = t.flow_of.(slot)
let content t slot = t.content.(slot)
let data_link t slot = t.data_link.(slot)
let req_link t slot = t.req_link.(slot)

let set_links t slot ~data_link ~req_link =
  t.data_link.(slot) <- data_link;
  t.req_link.(slot) <- req_link

let bp_local t slot = flag t slot f_bp_local
let set_bp_local t slot v = set_flag t slot f_bp_local v
let bp_forwarded t slot = flag t slot f_bp_forwarded
let set_bp_forwarded t slot v = set_flag t slot f_bp_forwarded v
let detour_override t slot = flag t slot f_detour_override
let set_detour_override t slot v = set_flag t slot f_detour_override v
let bp_outage t slot = flag t slot f_bp_outage
let set_bp_outage t slot v = set_flag t slot f_bp_outage v
let failed_over t slot = flag t slot f_failed_over
let set_failed_over t slot v = set_flag t slot f_failed_over v

let hot t slot = t.hots.(slot)
let set_hot t slot h = t.hots.(slot) <- h

let flowlet_choose t slot ~now ~preferred =
  let encode = function Primary -> -1 | Via v -> v in
  let decode v = if v < 0 then Primary else Via v in
  let last = t.fl_last.(slot) in
  if Float.is_nan last then begin
    t.fl_route.(slot) <- encode preferred;
    t.fl_last.(slot) <- now;
    preferred
  end
  else begin
    if now -. last > t.gap then t.fl_route.(slot) <- encode preferred;
    t.fl_last.(slot) <- now;
    decode t.fl_route.(slot)
  end

let iter t f = Hashtbl.iter f t.slots

let live t = Hashtbl.length t.slots

let peak t = t.peak

let recycled t = t.recycled

let approx_bytes t =
  let cap = Array.length t.flow_of in
  (* five int arrays + one float array + the hot pointer array at 8
     bytes a slot, one flag byte, plus ~3 words per live hashtable
     binding and the bucket array *)
  (cap * ((7 * 8) + 1)) + (live t * 24) + (cap * 4) + 128
