type burst = { at : float; duration : float; boost : float }

let burst ~at ~duration ~boost =
  if at < 0. then invalid_arg "Arrivals.burst: at < 0";
  if duration <= 0. then invalid_arg "Arrivals.burst: duration <= 0";
  if boost < 1. then invalid_arg "Arrivals.burst: boost < 1";
  { at; duration; boost }

(* the clock in a record of floats alone, so advancing it stores an
   unboxed float and allocates nothing *)
type clock = { mutable now : float }

type t = {
  rate : float;
  amplitude : float;
  period : float;
  bursts : burst array;
  peak : float;
  gap : float;  (* mean candidate gap at the envelope rate, 1 / peak *)
  rng : Sim.Rng.t;
  clock : clock;
}

let create ?(diurnal_amplitude = 0.) ?(diurnal_period = 86_400.)
    ?(bursts = []) ~rate ~seed () =
  if rate <= 0. then invalid_arg "Arrivals.create: rate <= 0";
  if diurnal_amplitude < 0. || diurnal_amplitude >= 1. then
    invalid_arg "Arrivals.create: diurnal_amplitude outside [0, 1)";
  if diurnal_period <= 0. then invalid_arg "Arrivals.create: period <= 0";
  (* envelope: assume every burst is active at the diurnal crest — a
     loose but safe thinning bound (overlaps compound) *)
  let boost_bound =
    List.fold_left (fun acc b -> acc *. b.boost) 1. bursts
  in
  let peak = rate *. (1. +. diurnal_amplitude) *. boost_bound in
  {
    rate;
    amplitude = diurnal_amplitude;
    period = diurnal_period;
    bursts = Array.of_list bursts;
    peak;
    gap = 1. /. peak;
    rng = Sim.Rng.create seed;
    clock = { now = 0. };
  }

(* inlined into [next], where its local float stays unboxed; the
   bursts compound in list order, as a left fold would *)
let[@inline] rate_at t time =
  let diurnal =
    1. +. (t.amplitude *. sin (2. *. Float.pi *. time /. t.period))
  in
  let boost = ref 1. in
  for i = 0 to Array.length t.bursts - 1 do
    let b = t.bursts.(i) in
    if time >= b.at && time < b.at +. b.duration then
      boost := !boost *. b.boost
  done;
  t.rate *. diurnal *. !boost

let peak_rate t = t.peak

(* a unit float from [Sim.Rng.bits53], as [Sim.Rng.float] draws it,
   but unboxed in its caller *)
let[@inline] uniform t = Float.of_int (Sim.Rng.bits53 t.rng) *. 0x1.0p-53

(* Lewis–Shedler: candidate gaps at the envelope rate, accepted with
   probability rate(t)/peak — an exact sample of the inhomogeneous
   process for any rate function below the envelope.  The gap and the
   acceptance uniform are [Sim.Rng.exponential ~mean:gap] and
   [Sim.Rng.float 1.] on the same bits, computed here so a candidate
   allocates nothing. *)
let next t =
  let now = ref t.clock.now in
  let accepted = ref false in
  while not !accepted do
    now := !now +. (-.t.gap *. log (1. -. uniform t));
    accepted := uniform t <= rate_at t !now /. t.peak
  done;
  t.clock.now <- !now;
  !now
