type t = {
  window : float;
  collapse_ratio : float;
  recovery_ratio : float;
  peak_tau : float;                   (* decay constant of the reference *)
  on_collapse : time:float -> rate:float -> peak:float -> unit;
  samples : (float * float) Queue.t;  (* (time, bits) deliveries *)
  mutable window_bits : float;
  mutable peak : float;
  mutable last_seen : float;          (* nan before the first sample/tick *)
  mutable collapsed_at : float;       (* nan when not in an episode *)
  mutable episodes : int;
  mutable recoveries : float list;    (* reverse order *)
}

let create ~window ~collapse_ratio ~recovery_ratio ~on_collapse =
  if window <= 0. then invalid_arg "Watchdog.create: window <= 0";
  {
    window;
    collapse_ratio;
    recovery_ratio;
    peak_tau = 8. *. window;
    on_collapse;
    samples = Queue.create ();
    window_bits = 0.;
    peak = 0.;
    last_seen = Float.nan;
    collapsed_at = Float.nan;
    episodes = 0;
    recoveries = [];
  }

let evict t ~time =
  let horizon = time -. t.window in
  let rec go () =
    match Queue.peek_opt t.samples with
    | Some (at, bits) when at < horizon ->
      ignore (Queue.pop t.samples);
      t.window_bits <- t.window_bits -. bits;
      go ()
    | Some _ | None -> ()
  in
  go ()

let rate t = t.window_bits /. t.window
let in_collapse t = not (Float.is_nan t.collapsed_at)

(* Age the peak reference towards the current rate: without decay, one
   startup delivery burst would anchor the thresholds forever — steady
   operation at a third of that burst would read as a permanent
   "collapse" with an unreachable recovery bar.  Decay continues
   through an episode, so a long outage's recovery bar relaxes towards
   levels the recovered system can actually sustain. *)
let advance t ~time =
  (if (not (Float.is_nan t.last_seen)) && time > t.last_seen then
     t.peak <- t.peak *. exp (-.(time -. t.last_seen) /. t.peak_tau));
  t.last_seen <- time

(* One evaluation of the detector.  Fires [on_collapse] exactly once
   per episode (at the collapse edge) and records a recovery once the
   windowed rate climbs back past the recovery threshold — the
   hysteresis gap between the two ratios prevents edge chatter. *)
let check t ~time =
  if t.peak > 0. then begin
    let r = rate t in
    if in_collapse t then begin
      if r >= t.recovery_ratio *. t.peak then begin
        let elapsed = time -. t.collapsed_at in
        t.collapsed_at <- Float.nan;
        t.recoveries <- elapsed :: t.recoveries
      end
    end
    else if r < t.collapse_ratio *. t.peak then begin
      t.collapsed_at <- time;
      t.episodes <- t.episodes + 1;
      t.on_collapse ~time ~rate:r ~peak:t.peak
    end
  end

let note_delivery t ~time ~bits =
  advance t ~time;
  evict t ~time;
  Queue.add (time, bits) t.samples;
  t.window_bits <- t.window_bits +. bits;
  let r = rate t in
  if r > t.peak then t.peak <- r;
  check t ~time

let tick t ~time =
  advance t ~time;
  evict t ~time;
  let r = rate t in
  if r > t.peak then t.peak <- r;
  check t ~time

let episodes t = t.episodes
let peak t = t.peak
let recovery_times t = List.rev t.recoveries
let total_recovery_time t = List.fold_left ( +. ) 0. t.recoveries
