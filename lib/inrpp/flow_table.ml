(* One-slab slot table — see the .mli for the contract.  Every slot is
   a [stride]-byte record in [slab]; the flowlet clock sits beside it
   in an unboxed float array.  The slab grows by doubling and never
   shrinks; a released slot is threaded onto a free list through its
   flow field (live slots hold the flow id >= 0, free slots hold
   [-2 - next] so the encoding never collides with a flow id).  The
   flow -> slot index chains live slots through their chain field from
   [buckets] and mirrors the stdlib [Hashtbl] step for step, so {!iter}
   keeps its order. *)

type route =
  | Primary
  | Via of int

(* flag bits, one byte per slot *)
let f_bp_local = 1
let f_bp_forwarded = 2
let f_detour_override = 4
let f_bp_outage = 8
let f_failed_over = 16

(* Slot layout: byte offsets within a slot.  The two 63-bit fields lead
   so they stay 8-byte aligned; the stride pads the flag byte to a
   whole word. *)
let o_flow = 0       (* flow id, or free-list thread *)
let o_content = 8
let o_chain = 16     (* next slot in the bucket, -1 = end *)
let o_data_link = 20 (* link id, -1 = none *)
let o_req_link = 24
let o_data_port = 28 (* the data link's port index, -1 = none *)
let o_route = 32     (* flowlet pin: -1 = Primary, else Via node id *)
let o_flags = 36
let stride = 40

(* Unchecked loads and stores: every slot number used below is under
   [cap], either taken from the index or checked by [slot_at], and
   every bucket number is masked to the bucket count. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let fits32 v = v >= -0x8000_0000 && v <= 0x7fff_ffff

let check32 what v =
  if not (fits32 v) then invalid_arg ("Flow_table: " ^ what ^ " outside int32")

type t = {
  gap : float;
  mutable buckets : Bytes.t;      (* int32 head slot per bucket, -1 = empty *)
  mutable live : int;
  mutable slab : Bytes.t;         (* [stride] bytes per slot *)
  mutable fl_last : float array;  (* unboxed; nan = no flowlet pin yet *)
  mutable cap : int;              (* slots in [slab] and [fl_last] *)
  mutable next : int;             (* first never-used slot *)
  mutable free : int;             (* free-list head, -1 = empty *)
  mutable peak : int;
  mutable recycled : int;
}

(* every byte 0xff: every int32 bucket head reads -1 *)
let empty_buckets n = Bytes.make (4 * n) '\255'

let n_buckets t = Bytes.length t.buckets / 4

let head t b = Int32.to_int (get32 t.buckets (4 * b))
let set_head t b slot = set32 t.buckets (4 * b) (Int32.of_int slot)

let create ~gap () =
  if gap < 0. then invalid_arg "Flow_table.create: gap < 0";
  {
    gap;
    buckets = empty_buckets 16;
    live = 0;
    slab = Bytes.empty;
    fl_last = [||];
    cap = 0;
    next = 0;
    free = -1;
    peak = 0;
    recycled = 0;
  }

(* A slot's fields by slot number and offset *)
let get t slot off = Int64.to_int (get64 t.slab ((slot * stride) + off))
let set t slot off v = set64 t.slab ((slot * stride) + off) (Int64.of_int v)
let get32f t slot off = Int32.to_int (get32 t.slab ((slot * stride) + off))

let set32f t slot off v =
  set32 t.slab ((slot * stride) + off) (Int32.of_int v)

let flags t slot =
  Char.code (Bytes.unsafe_get t.slab ((slot * stride) + o_flags))

let set_flags t slot v =
  Bytes.unsafe_set t.slab ((slot * stride) + o_flags) (Char.unsafe_chr v)

(* A slot number from a caller *)
let slot_at t slot =
  if slot < 0 || slot >= t.cap then invalid_arg "Flow_table: no such slot";
  slot

let grow t =
  let n = t.cap in
  let m = max 16 (2 * n) in
  (* chain fields and bucket heads hold slot numbers at int32 *)
  if not (fits32 m) then invalid_arg "Flow_table: slots outside int32";
  (* fresh blocks + blit: no temporary for the GC to keep; slots past
     [n] are written whole when first handed out *)
  let slab = Bytes.create (m * stride) in
  Bytes.blit t.slab 0 slab 0 (n * stride);
  t.slab <- slab;
  let fl = Array.create_float m in
  Array.blit t.fl_last 0 fl 0 n;
  t.fl_last <- fl;
  t.cap <- m

let alloc t =
  if t.free >= 0 then begin
    let slot = t.free in
    t.free <- -2 - get t slot o_flow;
    slot
  end
  else begin
    if t.next >= t.cap then grow t;
    let slot = t.next in
    t.next <- t.next + 1;
    slot
  end

let bucket t flow = Hashtbl.hash flow land (n_buckets t - 1)

let rec find_from t flow slot =
  if slot < 0 || get t slot o_flow = flow then slot
  else find_from t flow (get32f t slot o_chain)

let find t flow = find_from t flow (head t (bucket t flow))

(* Double the buckets as the stdlib [Hashtbl.resize] does in place:
   old bucket [i] splits into new buckets [i] and [i + n], each keeping
   its entries in chain order. *)
let resize t =
  let n = n_buckets t in
  let old = t.buckets in
  t.buckets <- empty_buckets (2 * n);
  for i = 0 to n - 1 do
    let lo = ref (-1) and hi = ref (-1) in
    let slot = ref (Int32.to_int (get32 old (4 * i))) in
    while !slot >= 0 do
      let s = !slot in
      slot := get32f t s o_chain;
      set32f t s o_chain (-1);
      if Hashtbl.hash (get t s o_flow) land n = 0 then begin
        if !lo < 0 then set_head t i s else set32f t !lo o_chain s;
        lo := s
      end
      else begin
        if !hi < 0 then set_head t (i + n) s else set32f t !hi o_chain s;
        hi := s
      end
    done
  done

let check_links ~data_link ~req_link ~data_port =
  check32 "link id" data_link;
  check32 "link id" req_link;
  check32 "port index" data_port

let write_links t slot ~data_link ~req_link ~data_port =
  set32f t slot o_data_link data_link;
  set32f t slot o_req_link req_link;
  set32f t slot o_data_port data_port

let write_entry t slot ~content ~data_link ~req_link ~data_port =
  set t slot o_content content;
  write_links t slot ~data_link ~req_link ~data_port;
  set_flags t slot 0

let set_entry t slot ~content ~data_link ~req_link ~data_port =
  let slot = slot_at t slot in
  check_links ~data_link ~req_link ~data_port;
  write_entry t slot ~content ~data_link ~req_link ~data_port

let add t ~flow =
  if flow < 0 then invalid_arg "Flow_table.install: flow < 0";
  let b = bucket t flow in
  let slot = find_from t flow (head t b) in
  if slot >= 0 then slot (* reinstall: keep the slot and the flowlet pin *)
  else begin
    (* prepend, then resize past two entries a bucket: stdlib [replace] *)
    let slot = alloc t in
    set32f t slot o_chain (head t b);
    set_head t b slot;
    set t slot o_flow flow;
    write_entry t slot ~content:flow ~data_link:(-1) ~req_link:(-1)
      ~data_port:(-1);
    set32f t slot o_route (-1);
    t.fl_last.(slot) <- Float.nan;
    t.live <- t.live + 1;
    if t.live > t.peak then t.peak <- t.live;
    if t.live > 2 * n_buckets t then resize t;
    slot
  end

let install t ~flow ~content ~data_link ~req_link ~data_port =
  check_links ~data_link ~req_link ~data_port;
  let slot = add t ~flow in
  write_entry t slot ~content ~data_link ~req_link ~data_port;
  slot

(* Unlink [flow]'s slot from bucket [b], whose walk reached [slot]
   after [prev] (-1 = at the head), and free it; the freed slot, or -1.
   Only the flow field changes. *)
let rec unlink t flow b prev slot =
  if slot < 0 then -1
  else if get t slot o_flow <> flow then
    unlink t flow b slot (get32f t slot o_chain)
  else begin
    let next = get32f t slot o_chain in
    if prev < 0 then set_head t b next else set32f t prev o_chain next;
    t.live <- t.live - 1;
    set t slot o_flow (-2 - t.free);
    t.free <- slot;
    t.recycled <- t.recycled + 1;
    slot
  end

let release t ~flow =
  let b = bucket t flow in
  unlink t flow b (-1) (head t b)

let flow_of t slot = get t (slot_at t slot) o_flow
let content t slot = get t (slot_at t slot) o_content
let data_link t slot = get32f t (slot_at t slot) o_data_link
let req_link t slot = get32f t (slot_at t slot) o_req_link
let data_port t slot = get32f t (slot_at t slot) o_data_port

let set_links t slot ~data_link ~req_link ~data_port =
  let slot = slot_at t slot in
  check_links ~data_link ~req_link ~data_port;
  write_links t slot ~data_link ~req_link ~data_port

let flag t slot bit = flags t (slot_at t slot) land bit <> 0

let set_flag t slot bit v =
  let slot = slot_at t slot in
  let cur = flags t slot in
  set_flags t slot (if v then cur lor bit else cur land lnot bit)

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

let flowlet_choose t slot ~now ~preferred =
  let slot = slot_at t slot in
  let encoded =
    match preferred with
    | Primary -> -1
    | Via v ->
      check32 "route" v;
      v
  in
  let last = Array.unsafe_get t.fl_last slot in
  Array.unsafe_set t.fl_last slot now;
  if Float.is_nan last then begin
    set32f t slot o_route encoded;
    preferred
  end
  else begin
    if now -. last > t.gap then set32f t slot o_route encoded;
    let v = get32f t slot o_route in
    if v < 0 then Primary else Via v
  end

let iter t f =
  for i = 0 to n_buckets t - 1 do
    let slot = ref (head t i) in
    while !slot >= 0 do
      let s = !slot in
      slot := get32f t s o_chain;
      f (get t s o_flow) s
    done
  done

let live t = t.live

let peak t = t.peak

let recycled t = t.recycled

let approx_bytes t =
  (* a slot's record plus its flowlet clock, an int32 per bucket, and
     the three blocks' headers and padding plus the table record *)
  (t.cap * (stride + 8)) + (n_buckets t * 4) + 128
