(* Struct-of-arrays slot table — see the .mli for the contract.  The
   arrays grow by doubling and never shrink; a released slot is
   threaded onto a free list through [flow_of] (live slots hold the
   flow id >= 0, free slots hold [-2 - next] so the encoding never
   collides with a flow id).  The flow -> slot index chains live slots
   through [chain] from [buckets] and mirrors the stdlib [Hashtbl]
   step for step, so {!iter} keeps its order. *)

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
  mutable buckets : int array;     (* head slot per bucket, -1 = empty *)
  mutable chain : int array;       (* slot -> next slot in its bucket *)
  mutable live : int;
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
    buckets = Array.make 16 (-1);
    chain = [||];
    live = 0;
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
  (* make + blit, not [Array.append]: no temporary for the GC to keep *)
  let grow_i a =
    let b = Array.make m (-1) in
    Array.blit a 0 b 0 n;
    b
  in
  t.chain <- grow_i t.chain;
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

let bucket t flow = Hashtbl.hash flow land (Array.length t.buckets - 1)

let rec find_from t flow slot =
  if slot < 0 || t.flow_of.(slot) = flow then slot
  else find_from t flow t.chain.(slot)

let find t flow = find_from t flow t.buckets.(bucket t flow)

(* Double the buckets as the stdlib [Hashtbl.resize] does in place:
   old bucket [i] splits into new buckets [i] and [i + n], each keeping
   its entries in chain order. *)
let resize t =
  let n = Array.length t.buckets in
  let nb = Array.make (2 * n) (-1) in
  for i = 0 to n - 1 do
    let lo = ref (-1) and hi = ref (-1) in
    let slot = ref t.buckets.(i) in
    while !slot >= 0 do
      let s = !slot in
      slot := t.chain.(s);
      t.chain.(s) <- -1;
      if Hashtbl.hash t.flow_of.(s) land n = 0 then begin
        if !lo < 0 then nb.(i) <- s else t.chain.(!lo) <- s;
        lo := s
      end
      else begin
        if !hi < 0 then nb.(i + n) <- s else t.chain.(!hi) <- s;
        hi := s
      end
    done
  done;
  t.buckets <- nb

let install t ~flow ~content ~data_link ~req_link =
  if flow < 0 then invalid_arg "Flow_table.install: flow < 0";
  let b = bucket t flow in
  let slot = find_from t flow t.buckets.(b) in
  let slot =
    if slot >= 0 then slot (* reinstall: keep the slot and the flowlet pin *)
    else begin
      (* prepend, then resize past two entries a bucket: stdlib [replace] *)
      let slot = alloc t in
      t.chain.(slot) <- t.buckets.(b);
      t.buckets.(b) <- slot;
      t.flow_of.(slot) <- flow;
      t.fl_last.(slot) <- Float.nan;
      t.fl_route.(slot) <- -1;
      t.live <- t.live + 1;
      if t.live > t.peak then t.peak <- t.live;
      if t.live > 2 * Array.length t.buckets then resize t;
      slot
    end
  in
  t.content.(slot) <- content;
  t.data_link.(slot) <- data_link;
  t.req_link.(slot) <- req_link;
  Bytes.unsafe_set t.flags slot '\000';
  t.hots.(slot) <- None;
  slot

(* Unlink [flow]'s slot from bucket [b], whose walk reached [slot]
   after [prev] (-1 = at the head), and free it. *)
let rec unlink t flow b prev slot =
  if slot >= 0 then
    if t.flow_of.(slot) <> flow then unlink t flow b slot t.chain.(slot)
    else begin
      let next = t.chain.(slot) in
      if prev < 0 then t.buckets.(b) <- next else t.chain.(prev) <- next;
      t.live <- t.live - 1;
      t.hots.(slot) <- None;
      t.flow_of.(slot) <- -2 - t.free;
      t.free <- slot;
      t.recycled <- t.recycled + 1
    end

let release t ~flow =
  let b = bucket t flow in
  unlink t flow b (-1) t.buckets.(b)

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

let iter t f =
  let buckets = t.buckets in
  for i = 0 to Array.length buckets - 1 do
    let slot = ref buckets.(i) in
    while !slot >= 0 do
      let s = !slot in
      slot := t.chain.(s);
      f t.flow_of.(s) s
    done
  done

let live t = t.live

let peak t = t.peak

let recycled t = t.recycled

let approx_bytes t =
  let cap = Array.length t.flow_of in
  (* six int arrays (the chain among them) + one float array + the hot
     pointer array at 8 bytes a slot, one flag byte, the bucket array
     and the headers *)
  (cap * ((8 * 8) + 1)) + (Array.length t.buckets * 8) + 128
