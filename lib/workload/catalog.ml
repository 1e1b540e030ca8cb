type t = {
  objects : int;
  chunk_counts : int array;            (* per object, drawn at create *)
  zipf : Sim.Rng.t -> int;             (* rank in [1, objects] *)
}

(* inverse-CDF of the bounded Pareto on [lo, hi_excl); [u] in [0, 1) *)
let bounded_pareto ~shape ~lo ~hi_excl u =
  let c = 1. -. ((lo /. hi_excl) ** shape) in
  lo *. ((1. -. (u *. c)) ** (-1. /. shape))

let create ?(alpha = 0.8) ?(chunk_shape = 1.2) ?(chunk_min = 4)
    ?(chunk_max = 256) ~objects ~seed () =
  if objects <= 0 then invalid_arg "Catalog.create: objects <= 0";
  if alpha < 0. then invalid_arg "Catalog.create: alpha < 0";
  if chunk_shape <= 0. then invalid_arg "Catalog.create: chunk_shape <= 0";
  if not (1 <= chunk_min && chunk_min <= chunk_max) then
    invalid_arg "Catalog.create: need 1 <= chunk_min <= chunk_max";
  let rng = Sim.Rng.create seed in
  let lo = float_of_int chunk_min and hi_excl = float_of_int (chunk_max + 1) in
  let chunk_counts =
    Array.init objects (fun _ ->
        if chunk_min = chunk_max then chunk_min
        else
          let x =
            bounded_pareto ~shape:chunk_shape ~lo ~hi_excl
              (Sim.Rng.float rng 1.)
          in
          (* floor keeps the integer survival exactly the continuous
             tail at integer thresholds; the clamp only guards float
             edge cases at the interval ends *)
          max chunk_min (min chunk_max (int_of_float x)))
  in
  { objects; chunk_counts; zipf = Sim.Rng.zipf_sampler ~n:objects ~s:alpha }

let chunks t id =
  if id < 0 || id >= t.objects then invalid_arg "Catalog.chunks: bad object id";
  t.chunk_counts.(id)

let draw t rng = t.zipf rng - 1
