(* Binary min-heap keyed on (time, epoch, stamp, seq), with O(1)
   cancellation and O(1) size.

   Heap positions hold unboxed keys only: [fkeys] keeps (time, epoch),
   two per position, and [ikeys] keeps (stamp, seq, slot), three.
   Payloads and cancel handles sit in slot-indexed tables written once
   per push, and popped slots go back on a free list, so sifting moves
   floats and ints only: no write barrier, no allocation.  A spare
   position past the capacity holds the entry being sifted.  Each
   handle carries the queue's counters and [cancel] updates them
   directly, so [size] is a field read with no scanning.

   The [epoch] key orders events that fire at the same instant: it is
   the (virtual) time at which the event was scheduled.  A caller that
   always pushes with epoch = its current clock gets plain FIFO
   (time, seq) order, because epochs are then non-decreasing in push
   order.  A caller that knows an event *would* have been scheduled at
   a later instant T by an equivalent eager process may push it early
   with [~epoch:T] and still take the same slot among same-time ties.
   [seq] (push order) is the final tie-break and is unique.

   Cancelled entries stay in the heap until they surface (lazy
   deletion) or until a compaction sweeps them out: when more than
   half the heap is dead weight, a push filters the positions in place
   and re-heapifies bottom-up.  Pop order is a function of the keys
   alone, so compaction leaves it unchanged, and so does holding an
   event back (see [take_seq]) and pushing it later with its keys.

   A pop defers removing the root: it recycles the root's slot and
   leaves position 0 as a hole.  Most events push a successor, and that
   push fills the hole with one sift down, where closing the hole at
   once and then adding the new entry would cost a sift down of the
   last entry plus a sift up of the new one.  Anything else that reads
   the top (a pop, [peek_time], compaction) first closes the hole with
   the last entry, exactly as an immediate removal would have.  The
   heap's layout differs, its contents do not, and since every entry's
   key tuple is unique (seq), neither does the pop order. *)

type counts = {
  mutable live : int;            (* live events, lane-held ones included *)
  mutable dead : int;            (* cancelled entries still in the heap *)
  mutable pushed_total : int;
  mutable cancelled_total : int;
  mutable compactions : int;
}

type handle = {
  mutable cancelled : bool;
  mutable in_heap : bool;
  counts : counts;
}

type stats = {
  scheduled : int;
  cancelled : int;
  compacted : int;
}

type 'a t = {
  mutable fkeys : float array;   (* by position: time, epoch *)
  mutable ikeys : int array;     (* by position: stamp, seq, slot *)
  mutable payloads : 'a array;   (* by slot *)
  mutable handles : handle array; (* by slot *)
  mutable free : int array;      (* stack of unused slots *)
  mutable nfree : int;
  mutable size_total : int;      (* entries in heap incl. cancelled *)
  mutable hole : bool;           (* position 0 is vacant: the entries sit
                                    at positions 1 .. size_total *)
  mutable next_seq : int;
  counts : counts;
  held : handle;                 (* shared handle for held pushes *)
  last : float array;            (* time and epoch of the last pop *)
}

let create () =
  let counts =
    { live = 0; dead = 0; pushed_total = 0; cancelled_total = 0;
      compactions = 0 }
  in
  {
    fkeys = [||];
    ikeys = [||];
    payloads = [||];
    handles = [||];
    free = [||];
    nfree = 0;
    size_total = 0;
    hole = false;
    next_seq = 0;
    counts;
    held = { cancelled = false; in_heap = true; counts };
    last = [| nan; nan |];
  }

let[@inline] spare t = Array.length t.payloads

let[@inline] before (fk : float array) (ik : int array) a b =
  let fa = 2 * a and fb = 2 * b and a = 3 * a and b = 3 * b in
  fk.(fa) < fk.(fb)
  || fk.(fa) = fk.(fb)
     && (fk.(fa + 1) < fk.(fb + 1)
        || fk.(fa + 1) = fk.(fb + 1)
           && (ik.(a) < ik.(b) || (ik.(a) = ik.(b) && ik.(a + 1) < ik.(b + 1))))

let[@inline] move (fk : float array) (ik : int array) ~src ~dst =
  let fs = 2 * src and fd = 2 * dst and s = 3 * src and d = 3 * dst in
  fk.(fd) <- fk.(fs);
  fk.(fd + 1) <- fk.(fs + 1);
  ik.(d) <- ik.(s);
  ik.(d + 1) <- ik.(s + 1);
  ik.(d + 2) <- ik.(s + 2)

(* settle the spare entry at or above the hole at [start] *)
let sift_up t start =
  let fk = t.fkeys and ik = t.ikeys and s = spare t in
  let i = ref start in
  while !i > 0 && before fk ik s ((!i - 1) / 2) do
    move fk ik ~src:((!i - 1) / 2) ~dst:!i;
    i := (!i - 1) / 2
  done;
  move fk ik ~src:s ~dst:!i

(* settle the spare entry at or below the hole at [start] *)
let sift_down t start =
  let fk = t.fkeys and ik = t.ikeys and s = spare t and n = t.size_total in
  let i = ref start and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < n && before fk ik (l + 1) l then l + 1 else l in
    if c < n && before fk ik c s then begin
      move fk ik ~src:c ~dst:!i;
      i := c
    end
    else continue := false
  done;
  move fk ik ~src:s ~dst:!i

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow t v =
  let cap = Array.length t.payloads in
  let ncap = max 16 (2 * cap) in
  t.fkeys <- extend t.fkeys (2 * (ncap + 1)) 0.;
  t.ikeys <- extend t.ikeys (3 * (ncap + 1)) 0;
  t.payloads <- extend t.payloads ncap v;
  t.handles <- extend t.handles ncap t.held;
  (* a full heap uses every old slot, so the new ones are all free *)
  t.free <- Array.init ncap (fun k -> ncap - 1 - k);
  t.nfree <- ncap - cap

let release_slot t slot =
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

(* fill a pending hole at the root with the last entry *)
let close_hole t =
  if t.hole then begin
    t.hole <- false;
    if t.size_total > 0 then begin
      move t.fkeys t.ikeys ~src:t.size_total ~dst:(spare t);
      sift_down t 0
    end
  end

(* Drop cancelled entries in place and rebuild the heap bottom-up
   (Floyd).  Live keys are untouched, so pop order is preserved. *)
let compact t =
  close_hole t;
  let fk = t.fkeys and ik = t.ikeys in
  let n = ref 0 in
  for i = 0 to t.size_total - 1 do
    let h = t.handles.(ik.((3 * i) + 2)) in
    if h.cancelled then begin
      h.in_heap <- false;
      release_slot t ik.((3 * i) + 2)
    end
    else begin
      move fk ik ~src:i ~dst:!n;
      incr n
    end
  done;
  t.size_total <- !n;
  t.counts.dead <- 0;
  for i = (!n / 2) - 1 downto 0 do
    move fk ik ~src:i ~dst:(spare t);
    sift_down t i
  done;
  t.counts.compactions <- t.counts.compactions + 1

(* Make room for one entry; the caller then writes its float keys at
   the spare position and calls [insert].  Compaction is worth a sweep
   once the heap is mostly dead weight and big enough to amortise it. *)
let[@inline] make_room t v =
  if t.size_total >= 64 && 2 * t.counts.dead > t.size_total then compact t;
  if t.nfree = 0 then grow t v;
  spare t

let insert t ~stamp ~seq h v =
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) and s = 3 * spare t in
  t.payloads.(slot) <- v;
  t.handles.(slot) <- h;
  t.ikeys.(s) <- stamp;
  t.ikeys.(s + 1) <- seq;
  t.ikeys.(s + 2) <- slot;
  t.size_total <- t.size_total + 1;
  if t.hole then begin
    t.hole <- false;
    sift_down t 0
  end
  else sift_up t (t.size_total - 1)

let[@inline] take_seq t =
  t.counts.live <- t.counts.live + 1;
  t.counts.pushed_total <- t.counts.pushed_total + 1;
  t.next_seq <- t.next_seq + 1;
  t.next_seq - 1

let push ?(epoch = neg_infinity) t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN time";
  let h = { cancelled = false; in_heap = true; counts = t.counts } in
  let s = 2 * make_room t payload in
  t.fkeys.(s) <- time;
  t.fkeys.(s + 1) <- epoch;
  let seq = take_seq t in
  insert t ~stamp:seq ~seq h payload;
  h

let next_stamp t = t.next_seq

let push_held t keys i ~stamp ~seq v =
  let s = 2 * make_room t v in
  t.fkeys.(s) <- keys.(i);
  t.fkeys.(s + 1) <- keys.(i + 1);
  insert t ~stamp ~seq t.held v

let cancel (h : handle) =
  if not h.cancelled then begin
    h.cancelled <- true;
    h.counts.cancelled_total <- h.counts.cancelled_total + 1;
    if h.in_heap then begin
      h.counts.live <- h.counts.live - 1;
      h.counts.dead <- h.counts.dead + 1
    end
  end

let is_cancelled (h : handle) = h.cancelled

(* remove the root, recycling its slot and leaving a hole *)
let remove_top t =
  release_slot t t.ikeys.(2);
  t.size_total <- t.size_total - 1;
  t.hole <- true

(* surface a live entry at the top, discarding cancelled ones *)
let rec clean_top t =
  close_hole t;
  if t.size_total > 0 then begin
    let h = t.handles.(t.ikeys.(2)) in
    if h.cancelled then begin
      h.in_heap <- false;
      t.counts.dead <- t.counts.dead - 1;
      remove_top t;
      clean_top t
    end
  end

(* Pop the earliest live event due by [horizon] and return its slot,
   valid until the next push (-1 when there is none). *)
let pop_slot t ~horizon =
  clean_top t;
  if t.size_total = 0 || t.fkeys.(0) > horizon then -1
  else begin
    let slot = t.ikeys.(2) in
    t.last.(0) <- t.fkeys.(0);
    t.last.(1) <- t.fkeys.(1);
    t.handles.(slot).in_heap <- false;
    t.counts.live <- t.counts.live - 1;
    remove_top t;
    slot
  end

let pop_before t ~horizon ~none =
  let slot = pop_slot t ~horizon in
  if slot < 0 then none else t.payloads.(slot)

let last_pop t = t.last

let pop t =
  let slot = pop_slot t ~horizon:infinity in
  if slot < 0 then None else Some (t.last.(0), t.payloads.(slot))

let peek_time t =
  clean_top t;
  if t.size_total = 0 then None else Some t.fkeys.(0)

let size t = t.counts.live

let is_empty t = t.counts.live = 0

let stats t =
  {
    scheduled = t.counts.pushed_total;
    cancelled = t.counts.cancelled_total;
    compacted = t.counts.compactions;
  }
