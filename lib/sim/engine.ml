type t = {
  queue : (unit -> unit) Event_queue.t;
  clock : float array;           (* the queue's last-pop cells: now, and
                                    the executing event's epoch
                                    ([infinity] outside execution) *)
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

let create () =
  let queue = Event_queue.create () in
  (Event_queue.last_pop queue).(0) <- 0.;
  (Event_queue.last_pop queue).(1) <- infinity;
  {
    queue;
    clock = Event_queue.last_pop queue;
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

(* A lane is a ring (capacity a power of two) of items with their
   keys; only the head's event is in the queue, as [fire]. *)
type 'a lane = {
  eng : t;
  mutable fire : unit -> unit;
  mutable items : 'a array;      (* allocated on the first push *)
  mutable keys : float array;    (* time, epoch per item *)
  mutable ints : int array;      (* stamp, seq per item *)
  mutable head : int;
  mutable len : int;
}

let enter_queue l i =
  Event_queue.push_held l.eng.queue l.keys (2 * i) ~stamp:l.ints.(2 * i)
    ~seq:l.ints.((2 * i) + 1) l.fire

let lane t handler =
  let l =
    { eng = t; fire = ignore; items = [||]; keys = [||]; ints = [||];
      head = 0; len = 0 }
  in
  l.fire <-
    (fun () ->
      let v = l.items.(l.head) in
      l.head <- (l.head + 1) land (Array.length l.items - 1);
      l.len <- l.len - 1;
      if l.len > 0 then enter_queue l l.head;
      handler v);
  l

(* double a full ring, unwrapping it to start at 0 *)
let grow_lane l v =
  let cap = Array.length l.items in
  let n = max 8 (2 * cap) and wrap = cap - l.head in
  let unwrap k a fill =
    let b = Array.make (k * n) fill in
    Array.blit a (k * l.head) b 0 (k * wrap);
    Array.blit a 0 b (k * wrap) (k * l.head);
    b
  in
  l.items <- unwrap 1 l.items v;
  l.keys <- unwrap 2 l.keys 0.;
  l.ints <- unwrap 2 l.ints 0;
  l.head <- 0

let lane_push l (k : float array) ~stamp v =
  let time = k.(0) and epoch = k.(1) in
  let last = (l.head + l.len - 1) land (Array.length l.items - 1) in
  if not (time >= now l.eng && epoch <= time)
     || (l.len > 0 && time <= l.keys.(2 * last))
  then invalid_arg "Engine.lane_push: keys out of order";
  if l.len = Array.length l.items then grow_lane l v;
  let i = (l.head + l.len) land (Array.length l.items - 1) in
  l.items.(i) <- v;
  l.keys.(2 * i) <- time;
  l.keys.((2 * i) + 1) <- epoch;
  l.ints.(2 * i) <- stamp;
  l.ints.((2 * i) + 1) <- Event_queue.take_seq l.eng.queue;
  l.len <- l.len + 1;
  if l.len = 1 then enter_queue l i

let lane_length l = l.len

let cancel = Event_queue.cancel

type periodic = {
  mutable next : Event_queue.handle option;
  mutable stopped : bool;
}

let schedule_periodic t ~interval f =
  if interval <= 0. then
    invalid_arg "Engine.schedule_periodic: interval <= 0";
  let p = { next = None; stopped = false } in
  let rec tick () =
    if not p.stopped then
      if f () then p.next <- Some (schedule t ~delay:interval tick)
      else p.next <- None
  in
  p.next <- Some (schedule t ~delay:interval tick);
  p

let cancel_periodic p =
  p.stopped <- true;
  (match p.next with
  | Some h -> Event_queue.cancel h
  | None -> ());
  p.next <- None

let periodic_active p = not p.stopped && p.next <> None

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

let no_event () = ()

(* run a popped event (the pop already moved the clock to it) *)
let[@inline] exec t f =
  t.handled <- t.handled + 1;
  if t.prof_enabled then profiled t f else f ()

let step t =
  let f = Event_queue.pop_before t.queue ~horizon:infinity ~none:no_event in
  f != no_event && (exec t f; true)

let run ?until ?(max_events = 100_000_000) t =
  let horizon = match until with Some h -> h | None -> infinity in
  let budget = ref max_events in
  let continue = ref true in
  while !continue do
    if !budget <= 0 then continue := false
    else begin
      let f = Event_queue.pop_before t.queue ~horizon ~none:no_event in
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
