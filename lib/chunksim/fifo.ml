(* A ring of packets whose capacity is a power of two, allocated on the
   first push and doubled when full.  The byte accounting sits in a
   float-only record, which OCaml stores flat, so neither a push nor a
   take allocates. *)

type bits = {
  capacity : float;
  mutable queued_bits : float;
  mutable dropped_bits : float;
}

type t = {
  mutable ring : Packet.t array;
  mutable head : int;
  mutable len : int;
  b : bits;
  mutable queued : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0. then invalid_arg "Fifo.create: capacity <= 0";
  {
    ring = [||];
    head = 0;
    len = 0;
    b = { capacity; queued_bits = 0.; dropped_bits = 0. };
    queued = 0;
    dropped = 0;
  }

(* double a full ring, unwrapping it to start at 0 *)
let grow t p =
  let cap = Array.length t.ring in
  let r = Array.make (max 8 (2 * cap)) p in
  Array.blit t.ring t.head r 0 (cap - t.head);
  Array.blit t.ring 0 r (cap - t.head) t.head;
  t.ring <- r;
  t.head <- 0

let push t (p : Packet.t) =
  let b = t.b in
  if b.queued_bits +. p.Packet.size > b.capacity then begin
    t.dropped <- t.dropped + 1;
    b.dropped_bits <- b.dropped_bits +. p.Packet.size;
    `Dropped
  end
  else begin
    if t.len = Array.length t.ring then grow t p;
    t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- p;
    t.len <- t.len + 1;
    b.queued_bits <- b.queued_bits +. p.Packet.size;
    t.queued <- t.queued + 1;
    `Queued
  end

let take t =
  if t.len = 0 then invalid_arg "Fifo.take: empty";
  let p = t.ring.(t.head) in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  t.b.queued_bits <- t.b.queued_bits -. p.Packet.size;
  p

let occupancy t = t.b.queued_bits
let length t = t.len
let is_empty t = t.len = 0
let capacity t = t.b.capacity
let total_queued t = t.queued
let total_dropped t = t.dropped
let total_dropped_bits t = t.b.dropped_bits
