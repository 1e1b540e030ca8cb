type cls = {
  id : int;
  q : Packet.t Queue.t;
  mutable deficit : float;
}

type t = {
  cap : float;
  quantum : float;
  classes : (int, cls) Hashtbl.t;
  mutable ring : cls list;      (* backlogged classes, service order *)
  mutable bits : float;
  mutable dropped : int;
}

let create ?(quantum = 10e3 *. 8.) ~capacity () =
  if capacity <= 0. then invalid_arg "Rr_queue.create: capacity <= 0";
  if quantum <= 0. then invalid_arg "Rr_queue.create: quantum <= 0";
  {
    cap = capacity;
    quantum;
    classes = Hashtbl.create 8;
    ring = [];
    bits = 0.;
    dropped = 0;
  }

let push t ~class_id (p : Packet.t) =
  if t.bits +. p.Packet.size > t.cap then begin
    t.dropped <- t.dropped + 1;
    `Dropped
  end
  else begin
    let c =
      match Hashtbl.find_opt t.classes class_id with
      | Some c -> c
      | None ->
        let c = { id = class_id; q = Queue.create (); deficit = 0. } in
        Hashtbl.add t.classes class_id c;
        c
    in
    if Queue.is_empty c.q then begin
      (* (re)joining the ring resets the deficit: no banked credit *)
      c.deficit <- 0.;
      t.ring <- t.ring @ [ c ]
    end;
    Queue.add p c.q;
    t.bits <- t.bits +. p.Packet.size;
    `Queued
  end

(* One DRR scan: serve the first class whose head fits its deficit,
   topping deficits up by one quantum as we pass.  Each pass either
   returns a packet or adds quantum to every backlogged class, so
   termination is bounded by max_packet/quantum passes. *)
let take t =
  (* enough passes for the largest packet to accumulate credit *)
  let passes = List.length t.ring * (2 + int_of_float (t.cap /. t.quantum)) in
  let rec scan guard =
    match t.ring with
    | [] -> invalid_arg "Rr_queue.take: empty"
    | c :: rest ->
      (* a class is in the ring exactly while its queue is non-empty *)
      let head = Queue.peek c.q in
      if head.Packet.size <= c.deficit then begin
        let p = Queue.take c.q in
        c.deficit <- c.deficit -. p.Packet.size;
        t.bits <- t.bits -. p.Packet.size;
        if Queue.is_empty c.q then t.ring <- rest
        else t.ring <- rest @ [ c ];
        p
      end
      else begin
        c.deficit <- c.deficit +. t.quantum;
        t.ring <- rest @ [ c ];
        if guard <= 0 then failwith "Rr_queue.take: no class eligible"
        else scan (guard - 1)
      end
  in
  scan passes

let occupancy t = t.bits
let capacity t = t.cap
let is_empty t = t.ring = []
let total_dropped t = t.dropped
