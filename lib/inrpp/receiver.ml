type t = {
  cfg : Config.t;
  eng : Sim.Engine.t;
  flow : int;
  sess : Session.t;
  send_request : Chunksim.Packet.t -> unit;
  on_complete : fct:float -> unit;
  mutable started : float option;
  mutable completed : float option;
  mutable req_count : int;
  mutable dup_count : int;
  mutable last_progress : float;
  mutable timeout_armed : bool;
  mutable timeout_scale : float;  (* exponential backoff multiplier *)
  (* retransmission circuit breaker; never opens under an infinite
     budget *)
  breaker : Overload.Breaker.t;
}

(* requests per second while no data has arrived yet: the "initial
   window" analogue *)
let initial_request_rate = 100.

let create ~cfg ~eng ~flow ~total_chunks ~send_request ~on_complete
    ?(overload = Overload.Config.off) () =
  {
    cfg;
    eng;
    flow;
    sess = Session.create ~total_chunks;
    send_request;
    on_complete;
    started = None;
    completed = None;
    req_count = 0;
    dup_count = 0;
    last_progress = 0.;
    timeout_armed = false;
    timeout_scale = 1.;
    breaker =
      Overload.Breaker.create ~budget:overload.Overload.Config.retry_budget
        ~probe_interval:overload.Overload.Config.probe_interval;
  }

let request t =
  let nc = Session.next_needed t.sess in
  if nc < Session.total t.sess then begin
    let ac =
      min
        (Session.total t.sess - 1)
        (max nc (Session.highest_received t.sess) + t.cfg.Config.anticipation)
    in
    t.req_count <- t.req_count + 1;
    t.send_request (Chunksim.Packet.request ~flow:t.flow ~nc ~ack:nc ~ac)
  end

(* Re-request timer with exponential backoff: each barren firing (no
   progress for a whole interval) re-requests and widens the interval
   by [timeout_backoff], capped at [timeout_backoff_cap ×
   request_timeout]; any progress resets the interval.  During a long
   partition the request count therefore grows logarithmically then
   linearly at the capped interval instead of linearly at 1/timeout. *)
let rec arm_timeout t =
  if not t.timeout_armed then begin
    t.timeout_armed <- true;
    let delay = t.cfg.Config.request_timeout *. t.timeout_scale in
    ignore
      (Sim.Engine.schedule t.eng ~delay (fun () ->
           t.timeout_armed <- false;
           if t.completed = None then begin
             let now = Sim.Engine.now t.eng in
             if now -. t.last_progress >= delay -. 1e-9 then begin
               match Overload.Breaker.on_timeout t.breaker ~now with
               | `Retry ->
                 request t;
                 t.timeout_scale <-
                   Float.min
                     (t.timeout_scale *. t.cfg.Config.timeout_backoff)
                     Config.timeout_backoff_cap
               | `Probe ->
                 (* half-open: exactly one probe, no backoff growth —
                    the breaker's probe interval is the pacing now *)
                 request t
               | `Wait -> ()
             end;
             arm_timeout t
           end))
  end

let start t =
  if t.started = None then begin
    t.started <- Some (Sim.Engine.now t.eng);
    t.last_progress <- Sim.Engine.now t.eng;
    request t;
    (* pace extra requests until data flows, like TCP's initial window *)
    let gap = 1. /. initial_request_rate in
    let rec prime n =
      if n > 0 then
        ignore
          (Sim.Engine.schedule t.eng ~delay:gap (fun () ->
               if Session.received_count t.sess = 0 && t.completed = None
               then begin
                 request t;
                 prime (n - 1)
               end))
    in
    prime 3;
    arm_timeout t
  end

let handle_data t (p : Chunksim.Packet.t) =
  match p.Chunksim.Packet.header with
  | Chunksim.Packet.Data { flow; idx; _ } when flow = t.flow ->
    if t.completed = None then begin
      let now = Sim.Engine.now t.eng in
      (match Session.receive t.sess idx with
      | `Duplicate -> t.dup_count <- t.dup_count + 1
      | `New ->
        t.last_progress <- now;
        t.timeout_scale <- 1.;
        Overload.Breaker.on_progress t.breaker;
        if Session.is_complete t.sess then begin
          t.completed <- Some now;
          let fct =
            match t.started with
            | Some s -> now -. s
            | None -> now
          in
          t.on_complete ~fct
        end
        else request t)
    end
  | Chunksim.Packet.Data _ | Chunksim.Packet.Request _
  | Chunksim.Packet.Backpressure _ ->
    ()

let session t = t.sess
let requests_sent t = t.req_count
let duplicates t = t.dup_count
let completed_at t = t.completed
