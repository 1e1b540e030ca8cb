(* Paged slot table — see the .mli for the contract.  Every slot is a
   [stride]-byte record in a [Bytes] page of [page_slots] slots.  The
   flowlet clock and route live beside the slot page in a float page
   and an int32 page, allocated at the first pin in that page; a page
   without them reads as unpinned.  The first page grows by doubling
   up to [page_slots]; past that, growth appends a fresh page and
   moves no slot, so a table never holds a second copy of its records
   and its slack is under one page.  The page directories double,
   copying only pointers.  A released slot is threaded onto a free
   list through its flow field (live slots hold the flow id >= 0, free
   slots hold [-2 - next] so the encoding never collides with a flow
   id).  The flow -> slot index chains live slots through their 24-bit
   chain field from [buckets] and mirrors the stdlib [Hashtbl] step
   for step, so {!iter} keeps its order.

   Two shortcuts skip walks whose answer the table already knows.
   [top] is the largest flow id ever added: a flow above it cannot be
   present, so its install skips the absence walk.  [memo_flow] and
   [memo_slot] remember the last flow {!find} found.  Slots never move
   ([resize] relinks chains, [grow] keeps every slot's number), so the
   memo stays exact until that flow's release clears it. *)

type route =
  | Primary
  | Via of int

(* flag bits, one byte per slot *)
let f_bp_local = 1
let f_bp_forwarded = 2
let f_detour_override = 4
let f_bp_outage = 8
let f_failed_over = 16

(* Slot layout: byte offsets within a slot.  The chain is a u16 and a
   u8 at 4 and 6, so it never touches the flag byte beside it. *)
let o_flow = 0       (* flow id, or free-list thread *)
let o_chain = 4      (* u24: next slot in the bucket + 1, 0 = end *)
let o_flags = 7
let o_data_port = 8  (* u16: port index + 1, 0 = none *)
let o_req_port = 10
let stride = 12
let max_slots = 0xff_ffff (* the chain holds slot + 1 *)

(* Slot [s] lives in page [s lsr page_bits] at index [s land page_mask] *)
let page_bits = 10
let page_slots = 1 lsl page_bits
let page_mask = page_slots - 1

(* Unchecked loads and stores: every slot number used below is under
   [cap], either taken from the index or checked by [slot_at], so its
   page exists; every bucket number is masked to the bucket count. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let check32 what v =
  if v < -0x8000_0000 || v > 0x7fff_ffff then
    invalid_arg ("Flow_table: " ^ what ^ " outside int32")

type t = {
  gap : float;
  mutable buckets : Bytes.t;      (* int32 head slot per bucket, -1 = empty *)
  mutable live : int;
  mutable pages : Bytes.t array;  (* [stride] bytes per slot *)
  (* per page, [||] and empty until its first pin: the flowlet clock
     (nan = no pin) and the int32 route (-1 = Primary, else Via node) *)
  mutable clocks : float array array;
  mutable routes : Bytes.t array;
  mutable cap : int;              (* slots in the pages *)
  mutable next : int;             (* first never-used slot *)
  mutable free : int;             (* free-list head, -1 = empty *)
  mutable peak : int;
  mutable recycled : int;
  mutable top : int;              (* largest flow id ever added, -1 = none *)
  mutable memo_flow : int;        (* last flow found, -1 = none *)
  mutable memo_slot : int;        (* its slot; -1 with memo_flow -1 *)
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
    pages = [||];
    clocks = [||];
    routes = [||];
    cap = 0;
    next = 0;
    free = -1;
    peak = 0;
    recycled = 0;
    top = -1;
    memo_flow = -1;
    memo_slot = -1;
  }

(* A slot's page and its byte offset there.  These and the field
   accessors must inline: a call per field read costs more than the
   page lookup itself. *)
let[@inline] page t slot = Array.unsafe_get t.pages (slot lsr page_bits)
let[@inline] at slot off = ((slot land page_mask) * stride) + off

(* A slot's int32 fields by slot number and offset *)
let[@inline] get32f t slot off =
  Int32.to_int (get32 (page t slot) (at slot off))

let[@inline] set32f t slot off v =
  set32 (page t slot) (at slot off) (Int32.of_int v)

let[@inline] chain t slot =
  let pg = page t slot and o = at slot o_chain in
  (get16 pg o lor (Char.code (Bytes.unsafe_get pg (o + 2)) lsl 16)) - 1

let[@inline] set_chain t slot next =
  let pg = page t slot and o = at slot o_chain and v = next + 1 in
  set16 pg o (v land 0xffff);
  Bytes.unsafe_set pg (o + 2) (Char.unsafe_chr (v lsr 16))

let[@inline] flags t slot =
  Char.code (Bytes.unsafe_get (page t slot) (at slot o_flags))

let[@inline] set_flags t slot v =
  Bytes.unsafe_set (page t slot) (at slot o_flags) (Char.unsafe_chr v)

(* A fresh slot's flowlet pin: none, and nothing to clear in a page
   that never pinned *)
let unpin t slot =
  let c = Array.unsafe_get t.clocks (slot lsr page_bits) in
  if Array.length c > 0 then
    Array.unsafe_set c (slot land page_mask) Float.nan

(* A slot number from a caller *)
let[@inline] slot_at t slot =
  if slot < 0 || slot >= t.cap then invalid_arg "Flow_table: no such slot";
  slot

(* The page that holds slot [n] is replaced by one that holds slots up
   to [m - 1]: below a page the first page doubles, copying its slots;
   from a page on it is a fresh page and no slot is copied.  The
   directories double when full, copying only pointers; the first grow
   creates them.  Fresh blocks + blit leave no temporary for the GC to
   keep; slots past [n] are written whole when first handed out. *)
let grow t =
  let n = t.cap in
  let m = if n < page_slots then max 16 (2 * n) else n + page_slots in
  if m > max_slots then invalid_arg "Flow_table: slots outside u24";
  let p = n lsr page_bits in
  if p = Array.length t.pages then begin
    let d = max 1 (2 * p) in
    let pages = Array.make d Bytes.empty in
    Array.blit t.pages 0 pages 0 p;
    t.pages <- pages;
    let clocks = Array.make d [||] in
    Array.blit t.clocks 0 clocks 0 p;
    t.clocks <- clocks;
    let routes = Array.make d Bytes.empty in
    Array.blit t.routes 0 routes 0 p;
    t.routes <- routes
  end;
  let base = p lsl page_bits in
  let pg = Bytes.create ((m - base) * stride) in
  Bytes.blit t.pages.(p) 0 pg 0 ((n - base) * stride);
  t.pages.(p) <- pg;
  (* a doubling first page that holds pins takes them along *)
  let fl = t.clocks.(p) in
  if Array.length fl > 0 then begin
    let c = Array.make (m - base) Float.nan in
    Array.blit fl 0 c 0 (n - base);
    t.clocks.(p) <- c;
    t.routes.(p) <- Bytes.extend t.routes.(p) 0 (4 * (m - n))
  end;
  t.cap <- m

let alloc t =
  if t.free >= 0 then begin
    let slot = t.free in
    t.free <- -2 - get32f t slot o_flow;
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
  if slot < 0 || get32f t slot o_flow = flow then slot
  else find_from t flow (chain t slot)

let find t flow =
  if flow = t.memo_flow then t.memo_slot
  else begin
    let slot = find_from t flow (head t (bucket t flow)) in
    if slot >= 0 then begin
      t.memo_flow <- flow;
      t.memo_slot <- slot
    end;
    slot
  end

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
      slot := chain t s;
      set_chain t s (-1);
      if Hashtbl.hash (get32f t s o_flow) land n = 0 then begin
        if !lo < 0 then set_head t i s else set_chain t !lo s;
        lo := s
      end
      else begin
        if !hi < 0 then set_head t (i + n) s else set_chain t !hi s;
        hi := s
      end
    done
  done

let check_ports ~data_port ~req_port =
  let bad p = p < -1 || p > 0xfffe in
  if bad data_port || bad req_port then
    invalid_arg "Flow_table: port index outside u16"

let write_ports t slot ~data_port ~req_port =
  let pg = page t slot in
  set16 pg (at slot o_data_port) (data_port + 1);
  set16 pg (at slot o_req_port) (req_port + 1)

let write_entry t slot ~data_port ~req_port =
  write_ports t slot ~data_port ~req_port;
  set_flags t slot 0

let set_entry t slot ~data_port ~req_port =
  let slot = slot_at t slot in
  check_ports ~data_port ~req_port;
  write_entry t slot ~data_port ~req_port

let add t ~flow =
  if flow < 0 then invalid_arg "Flow_table.add: flow < 0";
  check32 "flow id" flow;
  let b = bucket t flow in
  (* above [top] the flow cannot be present: skip the walk *)
  let slot =
    if flow > t.top then begin
      t.top <- flow;
      -1
    end
    else find_from t flow (head t b)
  in
  if slot >= 0 then slot (* reinstall: keep the slot and the flowlet pin *)
  else begin
    (* prepend, then resize past two entries a bucket: stdlib [replace] *)
    let slot = alloc t in
    set_chain t slot (head t b);
    set_head t b slot;
    set32f t slot o_flow flow;
    write_entry t slot ~data_port:(-1) ~req_port:(-1);
    unpin t slot;
    t.live <- t.live + 1;
    if t.live > t.peak then t.peak <- t.live;
    if t.live > 2 * n_buckets t then resize t;
    slot
  end

(* Unlink [flow]'s slot from bucket [b], whose walk reached [slot]
   after [prev] (-1 = at the head), and free it; the freed slot, or -1.
   Only the flow field changes. *)
let rec unlink t flow b prev slot =
  if slot < 0 then -1
  else if get32f t slot o_flow <> flow then
    unlink t flow b slot (chain t slot)
  else begin
    let next = chain t slot in
    if prev < 0 then set_head t b next else set_chain t prev next;
    if flow = t.memo_flow then begin
      t.memo_flow <- -1;
      t.memo_slot <- -1
    end;
    t.live <- t.live - 1;
    set32f t slot o_flow (-2 - t.free);
    t.free <- slot;
    t.recycled <- t.recycled + 1;
    slot
  end

let release t ~flow =
  let b = bucket t flow in
  unlink t flow b (-1) (head t b)

let port t slot off =
  let slot = slot_at t slot in
  get16 (page t slot) (at slot off) - 1

let data_port t slot = port t slot o_data_port
let req_port t slot = port t slot o_req_port

let set_ports t slot ~data_port ~req_port =
  let slot = slot_at t slot in
  check_ports ~data_port ~req_port;
  write_ports t slot ~data_port ~req_port

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
  let p = slot lsr page_bits and i = slot land page_mask in
  (* the page's first pin pages in its flowlet pair *)
  if Array.length t.clocks.(p) = 0 then begin
    let n = Bytes.length t.pages.(p) / stride in
    t.clocks.(p) <- Array.make n Float.nan;
    t.routes.(p) <- Bytes.create (4 * n)
  end;
  let clocks = t.clocks.(p) and routes = t.routes.(p) in
  let last = clocks.(i) in
  clocks.(i) <- now;
  if Float.is_nan last || now -. last > t.gap then begin
    set32 routes (4 * i) (Int32.of_int encoded);
    preferred
  end
  else
    let v = Int32.to_int (get32 routes (4 * i)) in
    if v < 0 then Primary else Via v

(* every live entry in stdlib order; with a [mask], only the entries
   with a bit of it set *)
let walk t mask f =
  for i = 0 to n_buckets t - 1 do
    let slot = ref (head t i) in
    while !slot >= 0 do
      let s = !slot in
      slot := chain t s;
      if mask = 0 || flags t s land mask <> 0 then f (get32f t s o_flow) s
    done
  done

let iter t f = walk t 0 f

let iter_bp t ~forwarded f =
  walk t (if forwarded then f_bp_local lor f_bp_forwarded else f_bp_local) f

let live t = t.live

let peak t = t.peak

let recycled t = t.recycled

let approx_bytes t =
  (* a slot's record, an int32 per bucket, a header and a padding word
     a page, three pointers a directory slot, and the fixed blocks'
     headers plus the table record; a page that pinned adds its clock
     and route, 12 B a slot, and three words of headers and padding *)
  let pages = (t.cap + page_mask) lsr page_bits in
  let flowlet acc c =
    if Array.length c = 0 then acc else acc + (12 * Array.length c) + 24
  in
  (t.cap * stride) + (n_buckets t * 4) + (16 * pages)
  + (24 * Array.length t.pages) + 200
  + Array.fold_left flowlet 0 t.clocks
