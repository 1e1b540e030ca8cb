type discipline =
  | Fifo_discipline
  | Drr of float

type queue =
  | Q_fifo of Fifo.t
  | Q_drr of Rr_queue.t

(* The transmitter is a [next_free_at] virtual clock.  Popping a
   packet advances the clock by its serialisation time and pushes its
   arrival onto the interface's engine lane — one engine event per
   packet, no per-packet closure, and only the lane's head in the
   event heap.  Pops that fall due while no event touches the
   interface are performed lazily ("catch up") by the next send,
   delivery or state read, with the start time taken from the virtual
   clock, so queue occupancy, DRR service order, delivery timestamps
   and utilisation are exactly those of an eager transmitter.
   Transmission statistics accrue the same way: at most one popped
   packet's completion lies in the future at any instant, so a single
   pending record is settled lazily.  Wire loss is decided in the
   arrival event; arrivals are FIFO, so the interface's loss stream is
   drawn in transmission order.

   A packet hop allocates nothing here.  The engine's clock is read
   from its cells ([clock]) rather than through [Sim.Engine.now], whose
   float result is boxed across modules; arrival keys go to the lane in
   a reused array; and no recursive function takes a float argument. *)

(* The transmitter's floats, written on every packet: a float-only
   record stores them unboxed, without a write barrier. *)
type clock = {
  mutable next_free_at : float;  (* virtual clock: busy until this time *)
  mutable inflight_tx : float;   (* un-settled tx seconds … *)
  mutable inflight_bits : float; (* … and bits of the newest popped packet *)
  mutable busy_accum : float;    (* total seconds spent transmitting *)
  mutable tx_bits_acc : float;
}

type t = {
  eng : Sim.Engine.t;
  clock : Sim.Engine.clock;      (* the engine's now and current epoch *)
  keys : float array;            (* the next arrival's time and epoch *)
  l : Topology.Link.t;
  q : queue;
  rate : float;
  prop_delay : float;
  deliver : Packet.t -> unit;
  loss : (float * Sim.Rng.t) option;
  c : clock;
  mutable chain_stamp : int;     (* scheduling stamp of the send that
                                    began the current busy period *)
  lane : Packet.t Sim.Engine.lane; (* popped packets awaiting arrival *)
  mutable inflight_pending : bool;
  (* fault state: a downed interface refuses admission, stops popping
     its queue, and destroys whatever was already on the wire *)
  mutable up : bool;
  mutable kill_wire : int;       (* in-flight packets to destroy on arrival *)
  mutable fault_tap : Packet.t -> unit;
  (* span tracing: called with (serialisation start, packet) when a
     transmission begins; [None] costs one match per pop *)
  mutable span_tap : (float -> Packet.t -> unit) option;
  (* profiler kind id claimed by this interface's arrival events *)
  mutable prof_kind : int;
  (* statistics *)
  mutable tx_packets_acc : int;
  mutable wire_loss_acc : int;
  mutable fault_drops_acc : int;
}

let default_queue_bits = 64. *. 10e3 *. 8.

let link t = t.l

let rate t = t.rate

let q_is_empty t =
  match t.q with
  | Q_fifo f -> Fifo.is_empty f
  | Q_drr d -> Rr_queue.is_empty d

let q_take t =
  match t.q with
  | Q_fifo f -> Fifo.take f
  | Q_drr d -> Rr_queue.take d

let q_push t (p : Packet.t) =
  match t.q with
  | Q_fifo f -> Fifo.push f p
  | Q_drr d -> Rr_queue.push d ~class_id:(Packet.flow p) p

(* the engine's clock, read unboxed *)
let[@inline] now t = (t.clock :> float array).(0)
let[@inline] epoch t = (t.clock :> float array).(1)

(* accrue the newest popped packet once its completion time passes *)
let[@inline] settle t ~now =
  let c = t.c in
  if t.inflight_pending && c.next_free_at <= now then begin
    c.busy_accum <- c.busy_accum +. c.inflight_tx;
    c.tx_bits_acc <- c.tx_bits_acc +. c.inflight_bits;
    t.tx_packets_acc <- t.tx_packets_acc + 1;
    t.inflight_pending <- false
  end

(* start serialising [p] at the virtual clock and push its arrival.
   The arrival lies strictly in the future: a packet only waits in the
   queue while a predecessor is on the wire, and our caller pops it no
   later than the predecessor's arrival event, so
   [next_free_at + tx + prop > predecessor arrival >= now].  The
   arrival's tie-break epoch is the completion instant, where the eager
   two-event scheme would have scheduled the propagation, and its stamp
   the busy period's, so it sorts among simultaneous events as that
   scheme's arrival would.  That scheme also ordered ties by the
   instant the completion itself was scheduled (the start); the key
   only reorders same-instant events whose order no pinned output
   observes, so it is not kept. *)
let start_tx t (p : Packet.t) =
  let c = t.c in
  let start = c.next_free_at in
  settle t ~now:start;
  (match t.span_tap with Some f -> f start p | None -> ());
  let tx = p.Packet.size /. t.rate in
  let done_at = start +. tx in
  c.next_free_at <- done_at;
  c.inflight_tx <- tx;
  c.inflight_bits <- p.Packet.size;
  t.inflight_pending <- true;
  t.keys.(0) <- done_at +. t.prop_delay;
  t.keys.(1) <- done_at;
  Sim.Engine.lane_push t.lane t.keys ~stamp:t.chain_stamp p

(* Is the pending completion at [next_free_at] due?  Strictly past:
   yes.  At an exact tie the eager scheme's completion event — pushed
   when its packet started transmitting — has run already iff it
   sorts before the event executing right now, i.e. iff the
   transmission's start instant precedes the current event's epoch. *)
let completion_due t =
  let c = t.c and now = now t in
  c.next_free_at < now
  || (c.next_free_at = now && c.next_free_at -. c.inflight_tx < epoch t)

(* perform every pop whose completion event would already have run,
   exactly as the eager transmitter would have at those instants *)
let rec catch_up t =
  if completion_due t then begin
    if t.up && not (q_is_empty t) then begin
      start_tx t (q_take t);
      catch_up t
    end
    (* empty, or down: pop nothing, but do accrue past work *)
    else settle t ~now:(now t)
  end

(* the lane's handler: deliver the oldest packet on the wire (the lane
   is FIFO — serialisation times are strictly positive, so arrival
   times strictly increase) *)
let on_arrival t p =
  Sim.Engine.profile_mark t.eng t.prof_kind;
  catch_up t;
  (* packets that were on the wire when the link went down die at
     their would-be arrival instant (arrivals are FIFO, so the next
     [kill_wire] arrivals are exactly those packets) *)
  if t.kill_wire > 0 then begin
    t.kill_wire <- t.kill_wire - 1;
    t.fault_drops_acc <- t.fault_drops_acc + 1;
    t.fault_tap p
  end
  else
    match t.loss with
    | Some (prob, rng) when Sim.Rng.float rng 1. < prob ->
      t.wire_loss_acc <- t.wire_loss_acc + 1
    | Some _ | None -> t.deliver p

(* Is the transmitter truly idle — its last completion event has run?
   [inflight_pending] covers the exact-tie case: if a completion is
   pending at this very instant but ordered after the current event,
   the eager scheme would pop inside that later completion event, so
   leaving the pop to a later catch-up reproduces both the pop's
   candidate set and the queue occupancy seen by any event ordered in
   between. *)
let idle t =
  let now = now t in
  t.c.next_free_at < now || (t.c.next_free_at = now && not t.inflight_pending)

(* begin a busy period now if the transmitter is idle: arrivals
   scheduled lazily for its later packets tie-break as if pushed now *)
let start_busy_period t =
  if idle t && not (q_is_empty t) then begin
    t.c.next_free_at <- now t;
    t.chain_stamp <- Sim.Engine.stamp t.eng;
    start_tx t (q_take t)
  end

let send t p =
  if not t.up then `Dropped (* admission refusal while down *)
  else begin
    catch_up t;
    match q_push t p with
    | `Dropped -> `Dropped
    | `Queued ->
      start_busy_period t;
      `Queued
  end

(* ------------------------------------------------------------------ *)

let create ?(queue_bits = default_queue_bits)
    ?(discipline = Fifo_discipline) ?loss eng l ~deliver =
  if queue_bits <= 0. then invalid_arg "Iface.create: queue_bits <= 0";
  (match loss with
  | Some (p, _) when p < 0. || p >= 1. ->
    invalid_arg "Iface.create: loss probability outside [0,1)"
  | Some _ | None -> ());
  (* the lane's handler is this interface's arrival *)
  let rec t =
    lazy {
      eng;
      clock = Sim.Engine.clock_cells eng;
      keys = Array.make 2 0.;
      l;
      q =
        (match discipline with
        | Fifo_discipline -> Q_fifo (Fifo.create ~capacity:queue_bits)
        | Drr quantum ->
          Q_drr (Rr_queue.create ~quantum ~capacity:queue_bits ()));
      rate = l.Topology.Link.capacity;
      prop_delay = l.Topology.Link.delay;
      deliver;
      loss;
      c =
        { next_free_at = 0.; inflight_tx = 0.; inflight_bits = 0.;
          busy_accum = 0.; tx_bits_acc = 0. };
      chain_stamp = 0;
      lane = Sim.Engine.lane eng (fun p -> on_arrival (Lazy.force t) p);
      inflight_pending = false;
      up = true;
      kill_wire = 0;
      fault_tap = (fun _ -> ());
      span_tap = None;
      prof_kind = 0;
      tx_packets_acc = 0;
      wire_loss_acc = 0;
      fault_drops_acc = 0;
    }
  in
  Lazy.force t

(* Reads catch the virtual transmitter up first, so observed queue
   occupancy, busy state and statistics are those of an eager
   transmitter at the same instant. *)
let sync t = catch_up t

let queue_occupancy t =
  sync t;
  match t.q with
  | Q_fifo f -> Fifo.occupancy f
  | Q_drr d -> Rr_queue.occupancy d

let queue_capacity t =
  match t.q with
  | Q_fifo f -> Fifo.capacity f
  | Q_drr d -> Rr_queue.capacity d

let busy t =
  sync t;
  not (idle t)

let utilisation t ~now =
  sync t;
  if now <= 0. then 0. else t.c.busy_accum /. now

let tx_bits t =
  sync t;
  t.c.tx_bits_acc

let tx_packets t =
  sync t;
  t.tx_packets_acc

let drops t =
  match t.q with
  | Q_fifo f -> Fifo.total_dropped f
  | Q_drr d -> Rr_queue.total_dropped d

let wire_losses t = t.wire_loss_acc

(* ------------------------------------------------------------------ *)
(* Fault control *)

let is_up t = t.up

let fault_drops t = t.fault_drops_acc

let set_fault_tap t f = t.fault_tap <- f

let set_span_tap t f = t.span_tap <- f

let set_profile_kind t k = t.prof_kind <- k

let set_down ?(policy = `Drop_queued) t =
  if t.up then begin
    sync t;
    t.up <- false;
    (* everything already on the wire dies at its arrival instant *)
    t.kill_wire <- t.kill_wire + Sim.Engine.lane_length t.lane;
    match policy with
    | `Hold_queued -> ()
    | `Drop_queued ->
      while not (q_is_empty t) do
        t.fault_drops_acc <- t.fault_drops_acc + 1;
        t.fault_tap (q_take t)
      done
  end

let set_up t =
  if not t.up then begin
    t.up <- true;
    (* The virtual transmitter may have gone idle during the outage;
       restart the busy period for any held packets.  Do not catch up
       with the stale clock first — pops while down were refused, so
       popping at [next_free_at] now would schedule arrivals in the
       past. *)
    settle t ~now:(now t);
    start_busy_period t
  end
