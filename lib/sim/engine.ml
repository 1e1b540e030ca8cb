type t = {
  queue : (unit -> unit) Event_queue.t;
  clock : float array;           (* the queue's last-pop cells: now, and
                                    the executing event's epoch
                                    ([infinity] outside execution) *)
  arm_keys : float array;        (* a timer arm's time and epoch, copied
                                    into the queue at once *)
  mutable handled : int;
  (* self-profiler: per-kind wall/allocation attribution.  Kind ids
     are interned at setup; handlers claim their kind with
     [profile_mark]; the run loop measures around each handler only
     while [prof_enabled] (one branch per event otherwise). *)
  mutable prof_enabled : bool;
  mutable prof_clock : unit -> float;
  mutable prof_names : string array;   (* id -> kind name; 0 = other *)
  mutable prof_events : int array;
  mutable prof_wall : float array;
  mutable prof_words : float array;
  mutable prof_cur : int;
}

(* what the queue returns when no event is due *)
let no_event () = ()

let create () =
  let queue = Event_queue.create ~vacant:no_event in
  (Event_queue.last_pop queue).(0) <- 0.;
  (Event_queue.last_pop queue).(1) <- infinity;
  {
    queue;
    clock = Event_queue.last_pop queue;
    arm_keys = Array.make 2 0.;
    handled = 0;
    prof_enabled = false;
    prof_clock = Sys.time;
    prof_names = [| "other" |];
    prof_events = [| 0 |];
    prof_wall = [| 0. |];
    prof_words = [| 0. |];
    prof_cur = 0;
  }

let now t = t.clock.(0)

type clock = float array

let clock_cells t = t.clock

let schedule_at t ~time f =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  if time < now t then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g < now %g" time (now t));
  Event_queue.push t.queue ~epoch:(now t) ~time f

let schedule t ~delay f =
  if Float.is_nan delay || delay < 0. then
    invalid_arg "Engine.schedule: negative or NaN delay";
  schedule_at t ~time:(now t +. delay) f

let stamp t = Event_queue.next_stamp t.queue

(* A timer is one owner's reusable event: its callback is fixed, so an
   arm pushes the same closure on the shared held handle, and passes
   its keys in the engine's cells, so an arm allocates nothing.  It
   takes exactly [schedule]'s keys: epoch [now], and a fresh seq as its
   stamp. *)
type timer = {
  teng : t;
  tfire : unit -> unit;
}

let timer t f = { teng = t; tfire = f }

let arm tm ~delay =
  if Float.is_nan delay || delay < 0. then
    invalid_arg "Engine.arm: negative or NaN delay";
  let t = tm.teng in
  let now = t.clock.(0) in
  t.arm_keys.(0) <- now +. delay;
  t.arm_keys.(1) <- now;
  let seq = Event_queue.take_seq t.queue in
  Event_queue.push_held t.queue t.arm_keys 0 ~stamp:seq ~seq tm.tfire

(* A lane keeps its items with their keys in fixed-size pages, linked
   head to tail; only the head's event is in the queue, as [fire].
   Every lane of one pool draws its pages from the pool's free list,
   which is threaded through the pages' [next] field, and hands back
   each page it has consumed whole.  A lane keeps its tail page, and an
   emptied lane starts over at its slot 0, so a lane that holds one
   item at a time touches the pool once.  A popped slot is overwritten
   with the pool's filler, so a page keeps no delivered item alive. *)
let page_slots = 8

type 'a page = {
  items : 'a array;
  keys : float array;            (* time, epoch per item *)
  ints : int array;              (* stamp, seq per item *)
  mutable next : 'a page;        (* the lane's next page, or the pool's
                                    next free page *)
}

type 'a pool = {
  filler : 'a;
  nil : 'a page;                 (* slotless: ends the free list, and
                                    every lane starts on it *)
  mutable free : 'a page;
}

let pool ~filler =
  let rec nil = { items = [||]; keys = [||]; ints = [||]; next = nil } in
  { filler; nil; free = nil }

let take_page p =
  let pg = p.free in
  if pg != p.nil then begin
    p.free <- pg.next;
    pg
  end
  else
    { items = Array.make page_slots p.filler;
      keys = Array.make (2 * page_slots) 0.;
      ints = Array.make (2 * page_slots) 0;
      next = p.nil }

let give_page p pg =
  pg.next <- p.free;
  p.free <- pg

(* Items run from slot [hi] of page [head] to slot [ti - 1] of page
   [tail]; [ti = page_slots] makes the next push take a page.  The
   tail's [next] is stale until that push overwrites it. *)
type 'a lane = {
  eng : t;
  pool : 'a pool;
  mutable handler : 'a -> unit;
  fire : unit -> unit;           (* pops the head: the queue's payload *)
  mutable head : 'a page;
  mutable hi : int;
  mutable tail : 'a page;
  mutable ti : int;
  mutable len : int;
}

let enter_queue l =
  let pg = l.head and i = 2 * l.hi in
  Event_queue.push_held l.eng.queue pg.keys i ~stamp:pg.ints.(i)
    ~seq:pg.ints.(i + 1) l.fire

let pop l =
  let pg = l.head and i = l.hi in
  let v = pg.items.(i) in
  pg.items.(i) <- l.pool.filler;
  l.len <- l.len - 1;
  if l.len = 0 then begin
    (* the head is the tail: start it over *)
    l.hi <- 0;
    l.ti <- 0
  end
  else begin
    if i + 1 = page_slots then begin
      l.head <- pg.next;
      l.hi <- 0;
      give_page l.pool pg
    end
    else l.hi <- i + 1;
    enter_queue l
  end;
  l.handler v

let lane p t handler =
  let rec l =
    { eng = t; pool = p; handler; fire = (fun () -> pop l); head = p.nil;
      hi = 0; tail = p.nil; ti = page_slots; len = 0 }
  in
  l

let set_lane_handler l handler = l.handler <- handler

let lane_push l (k : float array) ~stamp v =
  let time = k.(0) and epoch = k.(1) in
  if not (time >= now l.eng && epoch <= time)
     || (l.len > 0 && time <= l.tail.keys.(2 * (l.ti - 1)))
  then invalid_arg "Engine.lane_push: keys out of order";
  if l.ti = page_slots then begin
    let pg = take_page l.pool in
    if l.len = 0 then begin
      (* the lane's first page *)
      l.head <- pg;
      l.hi <- 0
    end
    else l.tail.next <- pg;
    l.tail <- pg;
    l.ti <- 0
  end;
  let pg = l.tail and i = l.ti in
  pg.items.(i) <- v;
  pg.keys.(2 * i) <- time;
  pg.keys.((2 * i) + 1) <- epoch;
  pg.ints.(2 * i) <- stamp;
  pg.ints.((2 * i) + 1) <- Event_queue.take_seq l.eng.queue;
  l.ti <- i + 1;
  l.len <- l.len + 1;
  if l.len = 1 then enter_queue l

let lane_length l = l.len

let cancel = Event_queue.cancel

let schedule_periodic t ~interval f =
  if interval <= 0. then
    invalid_arg "Engine.schedule_periodic: interval <= 0";
  let rec tick () = if f () then ignore (schedule t ~delay:interval tick) in
  ignore (schedule t ~delay:interval tick)

(* ------------------------------------------------------------------ *)
(* Self-profiler *)

let profile_kind t name =
  let n = Array.length t.prof_names in
  let rec find i = if i >= n then -1 else if t.prof_names.(i) = name then i else find (i + 1) in
  let i = find 0 in
  if i >= 0 then i
  else begin
    t.prof_names <- Array.append t.prof_names [| name |];
    t.prof_events <- Array.append t.prof_events [| 0 |];
    t.prof_wall <- Array.append t.prof_wall [| 0. |];
    t.prof_words <- Array.append t.prof_words [| 0. |];
    n
  end

let profile_mark t k = if t.prof_enabled then t.prof_cur <- k

let profile_start ?clock t =
  (match clock with Some c -> t.prof_clock <- c | None -> ());
  t.prof_enabled <- true

let profile_stop t = t.prof_enabled <- false

let profiling t = t.prof_enabled

let profile_rows t =
  List.filter
    (fun (_, events, _, _) -> events > 0)
    (List.init (Array.length t.prof_names) (fun i ->
         (t.prof_names.(i), t.prof_events.(i), t.prof_wall.(i),
          t.prof_words.(i))))

(* Measure one handler.  Order matters: the clock reads (which box a
   float) stay outside the [Gc.minor_words] window, so the profiler
   attributes only the handler's own allocation. *)
let[@inline] profiled t f =
  t.prof_cur <- 0;
  let c0 = t.prof_clock () in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let c1 = t.prof_clock () in
  let k = t.prof_cur in
  t.prof_events.(k) <- t.prof_events.(k) + 1;
  t.prof_wall.(k) <- t.prof_wall.(k) +. (c1 -. c0);
  t.prof_words.(k) <- t.prof_words.(k) +. (w1 -. w0)

(* ------------------------------------------------------------------ *)

(* run a popped event (the pop already moved the clock to it) *)
let[@inline] exec t f =
  t.handled <- t.handled + 1;
  if t.prof_enabled then profiled t f else f ()

let step t =
  let f = Event_queue.pop_before t.queue ~horizon:infinity in
  f != no_event && (exec t f; true)

let run ?until ?(max_events = 100_000_000) t =
  let horizon = match until with Some h -> h | None -> infinity in
  let budget = ref max_events in
  let continue = ref true in
  while !continue do
    if !budget <= 0 then continue := false
    else begin
      let f = Event_queue.pop_before t.queue ~horizon in
      if f == no_event then continue := false
      else begin
        exec t f;
        decr budget
      end
    end
  done;
  (* when stopped by the horizon or by draining the queue (not by the
     runaway guard), the clock advances to [until] per the contract
     and every event at or before the final clock has run *)
  if !budget > 0 || Event_queue.is_empty t.queue then begin
    t.clock.(1) <- infinity;
    match until with
    | Some h -> t.clock.(0) <- Float.max (now t) h
    | None -> ()
  end

let pending t = Event_queue.size t.queue

let events_handled t = t.handled
