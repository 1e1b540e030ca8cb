(* the floats written per chunk: a float-only record stores them
   unboxed *)
type floats = {
  mutable last_progress : float;
  mutable timeout_scale : float;  (* exponential backoff multiplier *)
}

type t = {
  cfg : Config.t;
  eng : Sim.Engine.t;
  clock : Sim.Engine.clock;
  flow : int;
  sess : Session.t;
  send_request : Chunksim.Packet.t -> unit;
  on_complete : fct:float -> unit;
  mutable started : float option;
  mutable completed : float option;
  mutable req_count : int;
  mutable dup_count : int;
  f : floats;
  (* [request_timeout *. timeout_scale], recomputed only when the scale
     moves, and the value the pending timeout was armed with: both stay
     boxed, so arming allocates nothing *)
  mutable interval : float;
  mutable armed_interval : float;
  mutable timeout_armed : bool;
  mutable timeout : Sim.Engine.timer;
  mutable primes_left : int;
  mutable primer : Sim.Engine.timer;
  (* retransmission circuit breaker; never opens under an infinite
     budget *)
  breaker : Overload.Breaker.t;
}

(* requests per second while no data has arrived yet: the "initial
   window" analogue *)
let initial_request_rate = 100.

let prime_gap = 1. /. initial_request_rate

let request t =
  let nc = Session.next_needed t.sess in
  if nc < Session.total t.sess then begin
    let ac =
      Int.min
        (Session.total t.sess - 1)
        (Int.max nc (Session.highest_received t.sess)
        + t.cfg.Config.anticipation)
    in
    t.req_count <- t.req_count + 1;
    t.send_request (Chunksim.Packet.request ~flow:t.flow ~nc ~ack:nc ~ac)
  end

(* The interval moves only when the scale does, and no float crosses a
   call: a barren firing at the cap or under the default backoff of 1
   allocates nothing, and a reset shares the boxed constant *)
let back_off t =
  let scale =
    Float.min
      (t.f.timeout_scale *. t.cfg.Config.timeout_backoff)
      Config.timeout_backoff_cap
  in
  if scale <> t.f.timeout_scale then begin
    t.f.timeout_scale <- scale;
    t.interval <- Config.request_timeout *. scale
  end

let reset_scale t =
  if t.f.timeout_scale <> 1. then begin
    t.f.timeout_scale <- 1.;
    t.interval <- Config.request_timeout
  end

(* Re-request timer with exponential backoff: each barren firing (no
   progress for a whole interval) re-requests and widens the interval
   by [timeout_backoff], capped at [timeout_backoff_cap ×
   request_timeout]; any progress resets the interval.  During a long
   partition the request count therefore grows logarithmically then
   linearly at the capped interval instead of linearly at 1/timeout. *)
let arm_timeout t =
  if not t.timeout_armed then begin
    t.timeout_armed <- true;
    t.armed_interval <- t.interval;
    Sim.Engine.arm t.timeout ~delay:t.interval
  end

let on_timeout t () =
  t.timeout_armed <- false;
  if Option.is_none t.completed then begin
    (* the clock is read in place, here and by the breaker: a firing
       boxes no float, barren or not *)
    let idle = (t.clock :> float array).(0) -. t.f.last_progress in
    if idle >= t.armed_interval -. 1e-9 then begin
      match
        Overload.Breaker.on_timeout t.breaker
          ~clock:(t.clock :> float array)
      with
      | `Retry ->
        request t;
        back_off t
      | `Probe ->
        (* half-open: exactly one probe, no backoff growth — the
           breaker's probe interval is the pacing now *)
        request t
      | `Wait -> ()
    end;
    arm_timeout t
  end

(* pace extra requests until data flows, like TCP's initial window *)
let on_prime t () =
  if Session.received_count t.sess = 0 && Option.is_none t.completed then begin
    request t;
    t.primes_left <- t.primes_left - 1;
    if t.primes_left > 0 then Sim.Engine.arm t.primer ~delay:prime_gap
  end

let create ~cfg ~eng ~flow ~total_chunks ~send_request ~on_complete
    ?(overload = Overload.Config.Off) () =
  (* the timers' callbacks close over [t]: both are set right below *)
  let unset = Sim.Engine.timer eng ignore in
  let interval = Config.request_timeout in
  let t =
    {
      cfg;
      eng;
      clock = Sim.Engine.clock_cells eng;
      flow;
      sess = Session.create ~total_chunks;
      send_request;
      on_complete;
      started = None;
      completed = None;
      req_count = 0;
      dup_count = 0;
      f = { last_progress = 0.; timeout_scale = 1. };
      interval;
      armed_interval = interval;
      timeout_armed = false;
      timeout = unset;
      primes_left = 0;
      primer = unset;
      breaker =
        (match overload with
         | Overload.Config.On _ ->
           Overload.Breaker.create ~budget:Overload.Config.retry_budget
             ~probe_interval:Overload.Config.probe_interval
         | Off ->
           Overload.Breaker.create ~budget:max_int ~probe_interval:infinity);
    }
  in
  t.timeout <- Sim.Engine.timer eng (on_timeout t);
  t.primer <- Sim.Engine.timer eng (on_prime t);
  t

let start t =
  if Option.is_none t.started then begin
    t.started <- Some (Sim.Engine.now t.eng);
    t.f.last_progress <- Sim.Engine.now t.eng;
    request t;
    t.primes_left <- 3;
    Sim.Engine.arm t.primer ~delay:prime_gap;
    arm_timeout t
  end

let handle_data t (p : Chunksim.Packet.t) =
  match p with
  | Chunksim.Packet.Data { flow; idx; _ } when flow = t.flow ->
    if Option.is_none t.completed then begin
      match Session.receive t.sess idx with
      | `Duplicate -> t.dup_count <- t.dup_count + 1
      | `New ->
        t.f.last_progress <- (t.clock :> float array).(0);
        reset_scale t;
        Overload.Breaker.on_progress t.breaker;
        if Session.is_complete t.sess then begin
          let now = Sim.Engine.now t.eng in
          t.completed <- Some now;
          let fct =
            match t.started with
            | Some s -> now -. s
            | None -> now
          in
          t.on_complete ~fct
        end
        else request t
    end
  | Chunksim.Packet.Data _ | Chunksim.Packet.Request _
  | Chunksim.Packet.Backpressure _ ->
    ()

let session t = t.sess
let requests_sent t = t.req_count
let duplicates t = t.dup_count
