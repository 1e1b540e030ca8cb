type pressure = {
  capacity : float;
  free : float;
  custody_bits : float;
  flow_bits : float;
  flow_backlog : int;
  incoming_bits : float;
  flows : int;
}

type policy = pressure -> bool

let object_runs ?(threshold = 0.6) () : policy =
  if not (0. < threshold && threshold <= 1.) then
    invalid_arg "Cache.object_runs: threshold must be in (0, 1]";
  (* Object-granularity admission: chunks continuing a run the store
     already committed to are always worth keeping (a partial object is
     useless downstream); new runs are admitted only while custody
     pressure is below the threshold fraction. *)
  fun p ->
    p.flow_backlog > 0
    || p.custody_bits +. p.incoming_bits <= threshold *. p.capacity

let fair_share () : policy =
  (* Per-flow fairness cap: no flow may grow its custody footprint past
     an equal split of the whole store across the flows currently
     holding custody.  A flow with no footprint yet always gets its
     first chunk in (the cap never starves). *)
  fun p ->
    let active = max 1 p.flows in
    let cap = p.capacity /. float_of_int active in
    p.flow_bits = 0. || p.flow_bits +. p.incoming_bits <= cap

(* int keys compared inline, not through polymorphic compare; the same
   buckets, resizes and fold order as a stdlib [Hashtbl] *)
module Itbl = Hashtbl.Make (Int)

(* The two regions' occupancy in an all-float record, which stores its
   fields unboxed: updating a float field of a mixed record boxes. *)
type used = { mutable custody : float; mutable popular : float }

type t = {
  cap : float;
  high : float;
  low : float;
  (* custody: per-flow FIFO of (idx, bits) *)
  custody : (int * float) Queue.t Itbl.t;
  (* the flows holding custody, ascending in holders.(0 .. held - 1): a
     flow joins with its first stored chunk and leaves with its last *)
  mutable holders : int array;
  mutable held : int;
  used : used;
  (* popularity: an LRU threaded through slot arrays.  Slot [s] holds a
     Chunk_key-packed key and its bits; [newer]/[older] link the slots
     from [oldest] to [newest], -1 ending the list, and free slots chain
     through [newer] from [spare].  [index] maps keys to slots by open
     addressing: -1 marks an empty cell, probing is linear from a
     multiplicative hash of the key (its top bits, [63 - shift] of
     them), and removal shifts the run back.  It has twice as many cells
     as there are slots (one cell before the first slot), so it is at
     most half full.  It is never iterated, so its hash cannot reach any
     output. *)
  mutable e_key : int array;
  mutable e_bits : float array;
  mutable newer : int array;
  mutable older : int array;
  mutable newest : int;
  mutable oldest : int;
  mutable spare : int;
  mutable index : int array;
  mutable shift : int;
  (* admission policy; [None] admits while capacity lasts (drop-tail) *)
  policy : policy option;
}

let no_slot = -1

let high_water = 0.7
let low_water = 0.3

let create ?policy ~capacity () =
  if capacity <= 0. then invalid_arg "Cache.create: capacity <= 0";
  {
    cap = capacity;
    high = high_water *. capacity;
    low = low_water *. capacity;
    custody = Itbl.create 16;
    holders = [||];
    held = 0;
    used = { custody = 0.; popular = 0. };
    (* no slots until the first insert: without ICN caching a store
       never inserts *)
    e_key = [||];
    e_bits = [||];
    newer = [||];
    older = [||];
    newest = no_slot;
    oldest = no_slot;
    spare = no_slot;
    index = [| no_slot |];
    shift = 63;
    policy;
  }

(* ------------------------------------------------------------------ *)
(* LRU plumbing *)

(* Fibonacci hashing: the top bits of the key times 2^63 / phi *)
let home t key = (key * 0x4F1BBCDCBFA53E0B) lsr t.shift

(* the cell holding [key], or else the empty cell that ends its run *)
let find_cell t key =
  let index = t.index and mask = Array.length t.index - 1 in
  let i = ref (home t key) in
  while
    let s = index.(!i) in
    s <> no_slot && t.e_key.(s) <> key
  do
    i := (!i + 1) land mask
  done;
  !i

(* Empties cell [i], moving back each later entry of its run whose home
   does not lie cyclically in (hole, entry], so that every key stays
   reachable from its home without crossing an empty cell. *)
let remove_cell t i =
  let index = t.index and mask = Array.length t.index - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while index.(!j) <> no_slot do
    let s = index.(!j) in
    if (!j - home t t.e_key.(s)) land mask >= (!j - !hole) land mask then begin
      index.(!hole) <- s;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  index.(!hole) <- no_slot

(* Doubles the slots (to 8 from none) and gives the index twice as many
   cells.  Called only with no spare slot, so every slot holds a key and
   the new index is rebuilt from them. *)
let grow t =
  let n = Array.length t.e_key in
  let m = max 8 (2 * n) in
  let extend a fill =
    let b = Array.make m fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.e_key <- extend t.e_key 0;
  t.e_bits <- extend t.e_bits 0.;
  t.newer <- extend t.newer no_slot;
  t.older <- extend t.older no_slot;
  for s = n to m - 2 do
    t.newer.(s) <- s + 1
  done;
  t.spare <- n;
  t.index <- Array.make (2 * m) no_slot;
  while 1 lsl (63 - t.shift) < 2 * m do
    t.shift <- t.shift - 1
  done;
  for s = 0 to n - 1 do
    t.index.(find_cell t t.e_key.(s)) <- s
  done

let take_slot t =
  if t.spare = no_slot then grow t;
  let s = t.spare in
  t.spare <- t.newer.(s);
  s

let release_slot t s =
  t.newer.(s) <- t.spare;
  t.spare <- s

let unlink t s =
  let o = t.older.(s) and n = t.newer.(s) in
  if o <> no_slot then t.newer.(o) <- n else t.oldest <- n;
  if n <> no_slot then t.older.(n) <- o else t.newest <- o

let push_newest t s =
  t.older.(s) <- t.newest;
  t.newer.(s) <- no_slot;
  if t.newest <> no_slot then t.newer.(t.newest) <- s else t.oldest <- s;
  t.newest <- s

let evict_oldest t =
  let s = t.oldest in
  if s = no_slot then false
  else begin
    unlink t s;
    remove_cell t (find_cell t t.e_key.(s));
    t.used.popular <- t.used.popular -. t.e_bits.(s);
    release_slot t s;
    true
  end

let free_bits t = t.cap -. t.used.custody -. t.used.popular

(* evicts least-recently-used entries until [bits] fit; false when even
   an empty LRU leaves too little room *)
let rec make_room t bits =
  free_bits t >= bits || (evict_oldest t && make_room t bits)

(* ------------------------------------------------------------------ *)
(* Custody *)

(* Flow ids mostly arrive in increasing order, so the shift is usually
   empty *)
let add_holder t flow =
  if t.held = Array.length t.holders then begin
    let a = Array.make (max 8 (2 * t.held)) 0 in
    Array.blit t.holders 0 a 0 t.held;
    t.holders <- a
  end;
  let a = t.holders and i = ref t.held in
  while !i > 0 && a.(!i - 1) > flow do a.(!i) <- a.(!i - 1); decr i done;
  a.(!i) <- flow;
  t.held <- t.held + 1

(* the flow's queue, now empty, leaves the table and the holders *)
let drop_flow t flow =
  Itbl.remove t.custody flow;
  let a = t.holders and i = ref 0 in
  while a.(!i) <> flow do incr i done;
  Array.blit a (!i + 1) a !i (t.held - !i - 1);
  t.held <- t.held - 1

let pressure_of t ~flow ~bits =
  let flow_bits, flow_backlog =
    match Itbl.find_opt t.custody flow with
    | None -> (0., 0)
    | Some q -> (Queue.fold (fun acc (_, b) -> acc +. b) 0. q, Queue.length q)
  in
  {
    capacity = t.cap;
    free = free_bits t;
    custody_bits = t.used.custody;
    flow_bits;
    flow_backlog;
    incoming_bits = bits;
    flows = t.held;
  }

let put_custody t ~flow ~idx ~bits =
  let rejected =
    match t.policy with
    | None -> false
    | Some admit -> not (admit (pressure_of t ~flow ~bits))
  in
  if rejected then `Rejected
  (* custody may displace popularity content: evict LRU until it fits *)
  else if not (make_room t bits) then `Full
  else begin
    let q =
      match Itbl.find_opt t.custody flow with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Itbl.add t.custody flow q;
        add_holder t flow;
        q
    in
    Queue.add (idx, bits) q;
    t.used.custody <- t.used.custody +. bits;
    `Stored
  end

let take_custody t ~flow =
  match Itbl.find_opt t.custody flow with
  | None -> None
  | Some q ->
    (match Queue.take_opt q with
    | None -> None
    | Some (idx, bits) ->
      t.used.custody <- t.used.custody -. bits;
      if Queue.is_empty q then drop_flow t flow;
      Some (idx, bits))

(* queues leave the table as they empty, so a found queue has a head *)
let peek_custody t ~flow =
  match Itbl.find t.custody flow with
  | q -> fst (Queue.peek q)
  | exception Not_found -> -1

let commit_custody t ~flow =
  match Itbl.find t.custody flow with
  | exception Not_found ->
    invalid_arg "Cache.commit_custody: flow holds no custody"
  | q ->
    let _, bits = Queue.take q in
    t.used.custody <- t.used.custody -. bits;
    if Queue.is_empty q then drop_flow t flow

let custody_backlog t ~flow =
  match Itbl.find_opt t.custody flow with
  | None -> 0
  | Some q -> Queue.length q

let custody_occupancy t = t.used.custody
let custody_is_empty t = t.held = 0
let above_high t = t.used.custody >= t.high
let below_low t = t.used.custody <= t.low

let custody_flows t buf =
  let n = t.held in
  if Array.length !buf < n then buf := Array.make (2 * n) 0;
  Array.blit t.holders 0 !buf 0 n;
  n

(* ------------------------------------------------------------------ *)
(* Popularity *)

let relink t s bits =
  t.e_bits.(s) <- bits;
  t.used.popular <- t.used.popular +. bits;
  push_newest t s

let insert_popular t ~flow ~idx ~bits =
  let key = Chunk_key.pack ~flow ~idx in
  let s = t.index.(find_cell t key) in
  if s <> no_slot then begin
    (* present: out of the LRU while make-room runs, so no eviction can
       reach it; it keeps its slot and its key stays indexed *)
    unlink t s;
    t.used.popular <- t.used.popular -. t.e_bits.(s);
    if make_room t bits then relink t s bits
    else begin
      remove_cell t (find_cell t key);
      release_slot t s
    end
  end
  else if make_room t bits then begin
    let s = take_slot t in
    t.e_key.(s) <- key;
    t.index.(find_cell t key) <- s;
    relink t s bits
  end

let lookup_popular t ~flow ~idx =
  let s = t.index.(find_cell t (Chunk_key.pack ~flow ~idx)) in
  if s = no_slot then false
  else begin
    if s <> t.newest then begin
      unlink t s;
      push_newest t s
    end;
    true
  end

let popular_occupancy t = t.used.popular

(* ------------------------------------------------------------------ *)

let occupancy t = t.used.custody +. t.used.popular
let capacity t = t.cap

