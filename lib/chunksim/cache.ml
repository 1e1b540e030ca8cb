type lru_entry = {
  key : int;                      (* Chunk_key-packed (flow, idx) *)
  bits : float;
  mutable newer : lru_entry option;
  mutable older : lru_entry option;
}

type pressure = {
  capacity : float;
  free : float;
  custody_bits : float;
  flow_bits : float;
  flow_backlog : int;
  incoming_bits : float;
  flows : int;
}

module type POLICY = sig
  val name : string
  val admit : pressure -> bool
end

type policy = (module POLICY)

module Drop_tail = struct
  let name = "drop-tail"
  let admit _ = true
end

let drop_tail : policy = (module Drop_tail)

let object_runs ?(threshold = 0.5) () : policy =
  if not (0. < threshold && threshold <= 1.) then
    invalid_arg "Cache.object_runs: threshold must be in (0, 1]";
  (module struct
    let name = Printf.sprintf "object-runs(%.2f)" threshold

    (* Object-granularity admission: chunks continuing a run the store
       already committed to are always worth keeping (a partial object
       is useless downstream); new runs are admitted only while custody
       pressure is below the threshold fraction. *)
    let admit p =
      p.flow_backlog > 0
      || p.custody_bits +. p.incoming_bits <= threshold *. p.capacity
  end)

let fair_share ?(share = 1.0) () : policy =
  if share <= 0. then invalid_arg "Cache.fair_share: share <= 0";
  (module struct
    let name = Printf.sprintf "fair-share(%.2f)" share

    (* Per-flow fairness cap: no flow may grow its custody footprint
       past [share] times an equal split of the whole store across the
       flows currently holding custody.  A flow with no footprint yet
       always gets its first chunk in (the cap never starves). *)
    let admit p =
      let active = max 1 p.flows in
      let cap = share *. p.capacity /. float_of_int active in
      p.flow_bits = 0. || p.flow_bits +. p.incoming_bits <= cap
  end)

type t = {
  cap : float;
  high : float;
  low : float;
  (* custody: per-flow FIFO of (idx, bits) *)
  custody : (int, (int * float) Queue.t) Hashtbl.t;
  (* the flows holding custody, ascending in holders.(0 .. held - 1): a
     flow joins with its first stored chunk and leaves with its last *)
  mutable holders : int array;
  mutable held : int;
  mutable custody_bits : float;
  (* popularity: LRU doubly-linked list + index *)
  popular : (int, lru_entry) Hashtbl.t;
  mutable popular_bits : float;
  mutable newest : lru_entry option;
  mutable oldest : lru_entry option;
  mutable hit_count : int;
  mutable miss_count : int;
  (* admission policy; [None] is the legacy always-admit hot path *)
  policy : policy option;
}

let create ?(high_water = 0.7) ?(low_water = 0.3) ?policy ~capacity () =
  if capacity <= 0. then invalid_arg "Cache.create: capacity <= 0";
  if not (0. <= low_water && low_water < high_water && high_water <= 1.) then
    invalid_arg "Cache.create: watermarks must satisfy 0 <= low < high <= 1";
  {
    cap = capacity;
    high = high_water *. capacity;
    low = low_water *. capacity;
    custody = Hashtbl.create 16;
    holders = [||];
    held = 0;
    custody_bits = 0.;
    popular = Hashtbl.create 64;
    popular_bits = 0.;
    newest = None;
    oldest = None;
    hit_count = 0;
    miss_count = 0;
    policy;
  }

(* ------------------------------------------------------------------ *)
(* LRU plumbing *)

let unlink t e =
  (match e.older with
  | Some o -> o.newer <- e.newer
  | None -> t.oldest <- e.newer);
  (match e.newer with
  | Some n -> n.older <- e.older
  | None -> t.newest <- e.older);
  e.newer <- None;
  e.older <- None

let push_newest t e =
  e.older <- t.newest;
  e.newer <- None;
  (match t.newest with
  | Some n -> n.newer <- Some e
  | None -> t.oldest <- Some e);
  t.newest <- Some e

let evict_oldest t =
  match t.oldest with
  | None -> false
  | Some e ->
    unlink t e;
    Hashtbl.remove t.popular e.key;
    t.popular_bits <- t.popular_bits -. e.bits;
    true

(* ------------------------------------------------------------------ *)
(* Custody *)

let free_bits t = t.cap -. t.custody_bits -. t.popular_bits

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
  Hashtbl.remove t.custody flow;
  let a = t.holders and i = ref 0 in
  while a.(!i) <> flow do incr i done;
  Array.blit a (!i + 1) a !i (t.held - !i - 1);
  t.held <- t.held - 1

let pressure_of t ~flow ~bits =
  let flow_bits, flow_backlog =
    match Hashtbl.find_opt t.custody flow with
    | None -> (0., 0)
    | Some q -> (Queue.fold (fun acc (_, b) -> acc +. b) 0. q, Queue.length q)
  in
  {
    capacity = t.cap;
    free = free_bits t;
    custody_bits = t.custody_bits;
    flow_bits;
    flow_backlog;
    incoming_bits = bits;
    flows = t.held;
  }

let put_custody t ~flow ~idx ~bits =
  let rejected =
    match t.policy with
    | None -> false
    | Some (module P) -> not (P.admit (pressure_of t ~flow ~bits))
  in
  if rejected then `Rejected
  else
  (* custody may displace popularity content: evict LRU until it fits *)
  let rec make_room () =
    if free_bits t >= bits then true
    else if evict_oldest t then make_room ()
    else false
  in
  if not (make_room ()) then `Full
  else begin
    let q =
      match Hashtbl.find_opt t.custody flow with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t.custody flow q;
        add_holder t flow;
        q
    in
    Queue.add (idx, bits) q;
    t.custody_bits <- t.custody_bits +. bits;
    `Stored
  end

let take_custody t ~flow =
  match Hashtbl.find_opt t.custody flow with
  | None -> None
  | Some q ->
    (match Queue.take_opt q with
    | None -> None
    | Some (idx, bits) ->
      t.custody_bits <- t.custody_bits -. bits;
      if Queue.is_empty q then drop_flow t flow;
      Some (idx, bits))

(* queues leave the table as they empty, so a found queue has a head *)
let peek_custody t ~flow =
  match Hashtbl.find t.custody flow with
  | q -> fst (Queue.peek q)
  | exception Not_found -> -1

let commit_custody t ~flow =
  match Hashtbl.find t.custody flow with
  | exception Not_found ->
    invalid_arg "Cache.commit_custody: flow holds no custody"
  | q ->
    let _, bits = Queue.take q in
    t.custody_bits <- t.custody_bits -. bits;
    if Queue.is_empty q then drop_flow t flow

let custody_backlog t ~flow =
  match Hashtbl.find_opt t.custody flow with
  | None -> 0
  | Some q -> Queue.length q

let custody_occupancy t = t.custody_bits
let custody_is_empty t = t.held = 0
let above_high t = t.custody_bits >= t.high
let below_low t = t.custody_bits <= t.low

let custody_flows t buf =
  let n = t.held in
  if Array.length !buf < n then buf := Array.make (2 * n) 0;
  Array.blit t.holders 0 !buf 0 n;
  n

(* ------------------------------------------------------------------ *)
(* Popularity *)

let insert_popular t ~flow ~idx ~bits =
  let key = Chunk_key.pack ~flow ~idx in
  (match Hashtbl.find_opt t.popular key with
  | Some existing ->
    unlink t existing;
    Hashtbl.remove t.popular key;
    t.popular_bits <- t.popular_bits -. existing.bits
  | None -> ());
  let rec make_room () =
    if free_bits t >= bits then true
    else if evict_oldest t then make_room ()
    else false
  in
  if make_room () then begin
    let e = { key; bits; newer = None; older = None } in
    Hashtbl.replace t.popular key e;
    t.popular_bits <- t.popular_bits +. bits;
    push_newest t e
  end

let lookup_popular t ~flow ~idx =
  match Hashtbl.find_opt t.popular (Chunk_key.pack ~flow ~idx) with
  | None ->
    t.miss_count <- t.miss_count + 1;
    false
  | Some e ->
    t.hit_count <- t.hit_count + 1;
    unlink t e;
    push_newest t e;
    true

let popular_occupancy t = t.popular_bits

(* ------------------------------------------------------------------ *)

let occupancy t = t.custody_bits +. t.popular_bits
let capacity t = t.cap
let policy_name t = Option.map (fun ((module P : POLICY)) -> P.name) t.policy
let hits t = t.hit_count
let misses t = t.miss_count

let holding_time t ~rate =
  if rate <= 0. then invalid_arg "Cache.holding_time: rate <= 0";
  t.cap /. rate
