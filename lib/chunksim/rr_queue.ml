(* A class's deficit sits in a float-only record, which OCaml stores
   flat, so topping it up or spending it allocates nothing; the queue's
   byte count likewise *)
type credit = { mutable deficit : float }

type cls = { q : Fifo.t; c : credit }

type bits = { mutable queued : float }

(* [ring] holds the backlogged classes in service order, [len] of them
   from [head] (its length is a power of two, doubled when a joining
   class finds it full).  A class is on the ring exactly while its
   queue is non-empty, so a push, a take and a rotation are each O(1)
   and, once the ring and the class queues have grown, allocate
   nothing. *)
type t = {
  cap : float;
  quantum : float;
  classes : (int, cls) Hashtbl.t;
  mutable ring : cls array;
  mutable head : int;
  mutable len : int;
  b : bits;
  mutable dropped : int;
}

let create ?(quantum = 10e3 *. 8.) ~capacity () =
  if capacity <= 0. then invalid_arg "Rr_queue.create: capacity <= 0";
  if quantum <= 0. then invalid_arg "Rr_queue.create: quantum <= 0";
  {
    cap = capacity;
    quantum;
    classes = Hashtbl.create 8;
    ring = [||];
    head = 0;
    len = 0;
    b = { queued = 0. };
    dropped = 0;
  }

(* [c] to the ring's tail, doubling a full ring (unwrapped to start at
   0) *)
let join t c =
  let n = Array.length t.ring in
  if t.len = n then begin
    let r = Array.make (max 8 (2 * n)) c in
    Array.blit t.ring t.head r 0 (n - t.head);
    Array.blit t.ring 0 r (n - t.head) t.head;
    t.ring <- r;
    t.head <- 0
  end;
  t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- c;
  t.len <- t.len + 1

(* the head class off the ring *)
let leave t =
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1

let push t ~class_id (p : Packet.t) =
  let b = Packet.size p in
  if t.b.queued +. b > t.cap then begin
    t.dropped <- t.dropped + 1;
    `Dropped
  end
  else begin
    let c =
      match Hashtbl.find t.classes class_id with
      | c -> c
      | exception Not_found ->
        let c = { q = Fifo.create ~capacity:t.cap; c = { deficit = 0. } } in
        Hashtbl.add t.classes class_id c;
        c
    in
    if Fifo.is_empty c.q then begin
      (* (re)joining the ring resets the deficit: no banked credit *)
      c.c.deficit <- 0.;
      join t c
    end;
    ignore (Fifo.push c.q p);
    t.b.queued <- t.b.queued +. b;
    `Queued
  end

(* One DRR scan: serve the head class if its head packet fits its
   deficit, else top the deficit up by one quantum and move the class
   to the tail.  A served class also moves to the tail, or leaves the
   ring once empty: one packet per turn.  Each full pass either returns
   a packet or adds a quantum to every backlogged class, so the scan
   ends within max_packet/quantum passes.  Top level, not a local
   closure, so a take allocates nothing. *)
let rec scan t guard =
  let c = t.ring.(t.head) in
  let b = Packet.size (Fifo.peek c.q) in
  leave t;
  if b <= c.c.deficit then begin
    let p = Fifo.take c.q in
    c.c.deficit <- c.c.deficit -. b;
    t.b.queued <- t.b.queued -. b;
    if not (Fifo.is_empty c.q) then join t c;
    p
  end
  else begin
    c.c.deficit <- c.c.deficit +. t.quantum;
    join t c;
    if guard <= 0 then failwith "Rr_queue.take: no class eligible"
    else scan t (guard - 1)
  end

let take t =
  if t.len = 0 then invalid_arg "Rr_queue.take: empty";
  (* enough passes for the largest packet to accumulate credit *)
  scan t (t.len * (2 + int_of_float (t.cap /. t.quantum)))

let occupancy t = t.b.queued
let capacity t = t.cap
let is_empty t = t.len = 0
let total_dropped t = t.dropped
