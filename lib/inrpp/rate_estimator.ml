(* The estimator record is deliberately all-float: records whose
   fields are all floats get OCaml's flat unboxed representation, so
   the per-packet [note_request]/[note_transit] stores and the
   per-interval [tick] update touch no boxed values and allocate
   nothing; one int field would box every float field and put an
   allocation on the protocol hot path.  The EWMA arithmetic is kept
   exactly as before (divisions, not precomputed reciprocals) so
   results are bit-identical to the boxed implementation. *)
type t = {
  ti : float;
  alpha : float;
  one_minus_alpha : float;
  capacity : float;
  mutable interval_bits : float;
  mutable ra : float;
}

let create ~ti ~alpha ~capacity =
  if ti <= 0. then invalid_arg "Rate_estimator.create: ti <= 0";
  if alpha < 0. || alpha > 1. then
    invalid_arg "Rate_estimator.create: alpha outside [0,1]";
  if capacity <= 0. then invalid_arg "Rate_estimator.create: capacity <= 0";
  {
    ti;
    alpha;
    one_minus_alpha = 1. -. alpha;
    capacity;
    interval_bits = 0.;
    ra = 0.;
  }

let note_request t ~expected_bits =
  t.interval_bits <- t.interval_bits +. expected_bits

let note_transit t ~bits = t.interval_bits <- t.interval_bits +. bits

let tick t =
  let instant = t.interval_bits /. t.ti in
  t.ra <- (t.alpha *. instant) +. (t.one_minus_alpha *. t.ra);
  t.interval_bits <- 0.

(* [k] idle intervals, each computed as [tick] computes one.  The
   update depends on r_a alone, so once an interval leaves r_a
   unchanged every later one does too: the loop stops there.  At the
   default alpha = 0.3 that takes ~2.2k intervals from 1 Tbps, and r_a
   then sits at the smallest denormal, which 0.7 times rounds back up
   to (at alpha = 0.5 it reaches 0 instead). *)
let replay_idle t k =
  if k < 0 then invalid_arg "Rate_estimator.replay_idle: k < 0";
  if k > 0 then begin
    if t.interval_bits <> 0. then
      invalid_arg "Rate_estimator.replay_idle: interval not idle";
    let i = ref 0 in
    while !i < k do
      let ra =
        (t.alpha *. (t.interval_bits /. t.ti)) +. (t.one_minus_alpha *. t.ra)
      in
      if ra = t.ra then i := k
      else begin
        t.ra <- ra;
        incr i
      end
    done
  end

let anticipated_rate t = t.ra

let ratio t = t.ra /. t.capacity
