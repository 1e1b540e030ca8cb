type t = {
  mutable w : float;
  mutable ssthresh : float;
  mutable srtt_v : float;
  mutable rttvar : float;
  mutable have_sample : bool;
  mutable last_cut : float;
  mutable loss_events : int;
}

let create ?(init = 2.) ?(ssthresh = 64.) () =
  if init < 1. then invalid_arg "Window.create: init < 1";
  if ssthresh < 1. then invalid_arg "Window.create: ssthresh < 1";
  {
    w = init;
    ssthresh;
    srtt_v = 0.;
    rttvar = 0.;
    have_sample = false;
    last_cut = neg_infinity;
    loss_events = 0;
  }

let size t = t.w
let capacity t = max 1 (int_of_float t.w)

let update_rtt t sample =
  if sample > 0. then begin
    if not t.have_sample then begin
      t.srtt_v <- sample;
      t.rttvar <- sample /. 2.;
      t.have_sample <- true
    end
    else begin
      let delta = Float.abs (sample -. t.srtt_v) in
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. delta);
      t.srtt_v <- (0.875 *. t.srtt_v) +. (0.125 *. sample)
    end
  end

let grow t increment =
  t.w <- t.w +. increment

let on_ack t ~now:_ ~rtt_sample =
  update_rtt t rtt_sample;
  if t.w < t.ssthresh then grow t 1. else grow t (1. /. t.w)

let on_ack_coupled t ~now:_ ~rtt_sample ~total_window =
  update_rtt t rtt_sample;
  if t.w < t.ssthresh then grow t 1.
  else begin
    let total = Float.max total_window t.w in
    grow t (Float.min (1. /. total) (1. /. t.w))
  end

let rto t =
  if not t.have_sample then 1.
  else Float.max 0.01 (t.srtt_v +. (4. *. t.rttvar))

let on_loss t ~now =
  let guard = if t.have_sample then t.srtt_v else 0.05 in
  if now -. t.last_cut >= guard then begin
    t.last_cut <- now;
    t.loss_events <- t.loss_events + 1;
    t.ssthresh <- Float.max 2. (t.w /. 2.);
    t.w <- t.ssthresh
  end

let losses t = t.loss_events
