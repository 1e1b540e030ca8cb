(* The state is 8 bytes read and written unboxed (an [int64] field
   would box on every step), and each step is inlined into its draw, so
   an [int] draw allocates nothing and a float draw only its boxed
   result. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9e3779b97f4a7c15L

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 (mix64 seed);
  t

let[@inline] step t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let next_int64 t = step t

let split t = create (step t)

(* the 53 high bits of a step, an immediate int; [Float.of_int] of one
   is exact, so [unit_float] reads as [Int64.to_float] did *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

(* 53-bit mantissa in [0,1) *)
let[@inline] unit_float t = Float.of_int (bits53 t) *. 0x1.0p-53

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound <= 0";
  unit_float t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* rejection-free modulo is fine: bounds here are tiny vs 2^64.  The
     unsigned remainder is [Int64.unsigned_rem] written out for a
     divisor in (0, 2^62): halve, divide, double, then at most one
     correction, since the partial remainder is below twice it. *)
  let n = step t and d = Int64.of_int bound in
  let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
  let r = Int64.sub n (Int64.mul q d) in
  Int64.to_int (if r >= d then Int64.sub r d else r)

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean <= 0";
  let u = 1. -. unit_float t in
  -.mean *. log u

let pareto t ~shape ~scale =
  if shape <= 0. then invalid_arg "Rng.pareto: shape <= 0";
  if scale <= 0. then invalid_arg "Rng.pareto: scale <= 0";
  let u = 1. -. unit_float t in
  scale /. (u ** (1. /. shape))

let zipf_sampler ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf_sampler: n <= 0";
  if s < 0. then invalid_arg "Rng.zipf_sampler: s < 0";
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 1 to n do
    acc := !acc +. (1. /. (float_of_int k ** s));
    cdf.(k - 1) <- !acc
  done;
  let total = !acc in
  fun t ->
    let u = unit_float t *. total in
    (* binary search for first cdf >= u *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo + 1
