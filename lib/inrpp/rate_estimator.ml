(* The estimator record is deliberately all-float: records whose
   fields are all floats get OCaml's flat unboxed representation, so
   the per-packet [note_request]/[note_transit] stores and the
   per-interval [tick] update touch no boxed values and allocate
   nothing.  This is why the tick counter lives in the record as a
   float ([intervals] converts on read, a cold path) — one int field
   would box every float field and put an allocation on the protocol
   hot path.  The EWMA arithmetic is kept exactly as before
   (divisions, not precomputed reciprocals) so results are
   bit-identical to the boxed implementation. *)
type t = {
  ti : float;
  alpha : float;
  one_minus_alpha : float;
  capacity : float;
  mutable interval_bits : float;
  mutable ra : float;
  mutable ticks : float;
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
    ticks = 0.;
  }

let note_request t ~expected_bits =
  t.interval_bits <- t.interval_bits +. expected_bits

let note_transit t ~bits = t.interval_bits <- t.interval_bits +. bits

let tick t =
  let instant = t.interval_bits /. t.ti in
  t.ra <- (t.alpha *. instant) +. (t.one_minus_alpha *. t.ra);
  t.interval_bits <- 0.;
  t.ticks <- t.ticks +. 1.

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
    done;
    t.ticks <- t.ticks +. float_of_int k
  end

let anticipated_rate t = t.ra

let ratio t = t.ra /. t.capacity

let intervals t = int_of_float t.ticks

module Shares = struct
  type t = {
    n : int;
    counts : int array array;   (* counts.(from).(to) *)
    totals : int array;         (* per from-iface *)
  }

  let create ~ifaces =
    if ifaces <= 0 then invalid_arg "Shares.create: ifaces <= 0";
    {
      n = ifaces;
      counts = Array.make_matrix ifaces ifaces 0;
      totals = Array.make ifaces 0;
    }

  let check t i name =
    if i < 0 || i >= t.n then
      invalid_arg (Printf.sprintf "Shares.%s: iface %d out of range" name i)

  let note t ~from_iface ~to_iface =
    check t from_iface "note";
    check t to_iface "note";
    t.counts.(from_iface).(to_iface) <- t.counts.(from_iface).(to_iface) + 1;
    t.totals.(from_iface) <- t.totals.(from_iface) + 1

  let y t ~from_iface ~to_iface =
    check t from_iface "y";
    check t to_iface "y";
    if t.totals.(from_iface) = 0 then 0.
    else
      float_of_int t.counts.(from_iface).(to_iface)
      /. float_of_int t.totals.(from_iface)

  let reset t =
    Array.iter (fun row -> Array.fill row 0 t.n 0) t.counts;
    Array.fill t.totals 0 t.n 0
end
