(* int keys compared inline, not through polymorphic compare; the same
   buckets, resizes and fold order as a stdlib [Hashtbl] *)
module Itbl = Hashtbl.Make (Int)

type t = {
  cfg : Config.t;
  eng : Sim.Engine.t;
  trace : Chunksim.Trace.t option;
  flow : int;
  total_chunks : int;
  gap : float;                       (* pacing interval, seconds *)
  transmit : Chunksim.Packet.t -> unit;
  (* indices of invited chunks awaiting pacing, oldest first: a ring
     (capacity a power of two) *)
  mutable pending : int array;
  mutable head : int;
  mutable len : int;
  mutable pacer : Sim.Engine.timer;  (* fires one gap after each paced send *)
  mutable highest_enqueued : int;    (* -1 before the first invitation *)
  mutable highest_sent : int;
  mutable busy : bool;               (* pacing timer armed *)
  mutable last_nc : int;
  mutable nc_repeats : int;
  mutable bp : bool;
  mutable tx_count : int;
  retx_at : float Itbl.t;
}

let now t = Sim.Engine.now t.eng

let send_chunk t idx =
  let p =
    Chunksim.Packet.data ~flow:t.flow ~idx ~born:(now t) t.cfg.Config.chunk_bits
  in
  t.tx_count <- t.tx_count + 1;
  if idx > t.highest_sent then t.highest_sent <- idx;
  t.transmit p

(* append a chunk to the backlog, doubling a full ring *)
let enqueue t idx =
  let cap = Array.length t.pending in
  if t.len = cap then begin
    let r = Array.make (max 16 (2 * cap)) 0 in
    Array.blit t.pending t.head r 0 (cap - t.head);
    Array.blit t.pending 0 r (cap - t.head) t.head;
    t.pending <- r;
    t.head <- 0
  end;
  t.pending.((t.head + t.len) land (Array.length t.pending - 1)) <- idx;
  t.len <- t.len + 1

(* drain the backlog one transmission time apart *)
let service t =
  if (not t.busy) && t.len > 0 then begin
    let idx = t.pending.(t.head) in
    t.head <- (t.head + 1) land (Array.length t.pending - 1);
    t.len <- t.len - 1;
    t.busy <- true;
    send_chunk t idx;
    Sim.Engine.arm t.pacer ~delay:t.gap
  end

let create ~cfg ~eng ?trace ~flow ~total_chunks ~pace_rate ~transmit () =
  if total_chunks <= 0 then invalid_arg "Sender.create: total_chunks <= 0";
  if pace_rate <= 0. then invalid_arg "Sender.create: pace_rate <= 0";
  let t =
    {
      cfg;
      eng;
      trace;
      flow;
      total_chunks;
      gap = cfg.Config.chunk_bits /. pace_rate;
      transmit;
      pending = [||];
      head = 0;
      len = 0;
      pacer = Sim.Engine.timer eng ignore; (* its callback closes over [t] *)
      highest_enqueued = -1;
      highest_sent = -1;
      busy = false;
      last_nc = -1;
      nc_repeats = 0;
      bp = false;
      tx_count = 0;
      retx_at = Itbl.create 8;
    }
  in
  t.pacer <-
    Sim.Engine.timer eng (fun () ->
        t.busy <- false;
        service t);
  t

let retransmit_ok t idx =
  let current = now t in
  match Itbl.find_opt t.retx_at idx with
  | Some last when current -. last < Config.request_timeout /. 2. ->
    false
  | _ ->
    Itbl.replace t.retx_at idx current;
    true

let handle_request t ~nc ~ac =
  if nc < t.total_chunks then begin
    (* several requests in a row repeating the same Nc mean the
       receiver is stuck on a hole: retransmit that chunk.  One or two
       repeats are normal while detoured chunks arrive out of order. *)
    if nc = t.last_nc then t.nc_repeats <- t.nc_repeats + 1
    else begin
      t.last_nc <- nc;
      t.nc_repeats <- 0
    end;
    let stalled = t.nc_repeats >= 2 in
    if stalled && nc <= t.highest_sent && retransmit_ok t nc then begin
      (* lifecycle-gated (Trace.set_lifecycle): span consumers need the
         retransmit marker to flag polluted per-chunk attribution *)
      (match t.trace with
      | Some tr when Chunksim.Trace.lifecycle tr ->
        Chunksim.Trace.record tr ~time:(now t)
          (Chunksim.Trace.Retransmit { flow = t.flow; idx = nc })
      | Some _ | None -> ());
      send_chunk t nc
    end;
    if t.bp then begin
      (* closed loop: one new chunk per request *)
      if nc > t.highest_enqueued then begin
        t.highest_enqueued <- nc;
        send_chunk t nc
      end
    end
    else begin
      (* open loop: invite everything up to Ac into the paced backlog *)
      let start = t.highest_enqueued + 1 in
      let stop = Int.min ac (t.total_chunks - 1) in
      for idx = start to stop do
        enqueue t idx
      done;
      if stop > t.highest_enqueued then t.highest_enqueued <- stop;
      service t
    end
  end

let enter_backpressure t =
  (* freeze the open-loop backlog; un-invite what was never sent so the
     closed loop re-issues it 1-for-1 *)
  t.bp <- true;
  t.head <- 0;
  t.len <- 0;
  t.highest_enqueued <- t.highest_sent

let handle t (p : Chunksim.Packet.t) =
  match p with
  | Chunksim.Packet.Request { flow; nc; ac; _ } when flow = t.flow ->
    handle_request t ~nc ~ac
  | Chunksim.Packet.Backpressure { flow; engage } when flow = t.flow ->
    if engage then enter_backpressure t else t.bp <- false
  | Chunksim.Packet.Request _ | Chunksim.Packet.Backpressure _
  | Chunksim.Packet.Data _ ->
    ()

let backlog t = t.len
let sent_packets t = t.tx_count
let in_backpressure t = t.bp
