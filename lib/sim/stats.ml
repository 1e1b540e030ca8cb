module Running = struct
  type t = {
    mutable n : int;
    mutable mean_acc : float;
    mutable min_v : float;
    mutable max_v : float;
    mutable sum_v : float;
  }

  let create () =
    {
      n = 0;
      mean_acc = 0.;
      min_v = infinity;
      max_v = neg_infinity;
      sum_v = 0.;
    }

  let add t x =
    t.n <- t.n + 1;
    t.mean_acc <- t.mean_acc +. ((x -. t.mean_acc) /. float_of_int t.n);
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x;
    t.sum_v <- t.sum_v +. x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean_acc
  let min t = t.min_v
  let max t = t.max_v
  let sum t = t.sum_v

end

module Samples = struct
  type t = {
    mutable data : float array;
    mutable n : int;
    mutable sorted : bool;
  }

  let create () = { data = Array.make 64 0.; n = 0; sorted = true }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0. in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1;
    t.sorted <- false

  let count t = t.n

  let ensure_sorted t =
    if not t.sorted then begin
      let view = Array.sub t.data 0 t.n in
      Array.sort Float.compare view;
      Array.blit view 0 t.data 0 t.n;
      t.sorted <- true
    end

  let to_sorted_array t =
    ensure_sorted t;
    Array.sub t.data 0 t.n

  let mean t =
    if t.n = 0 then 0.
    else begin
      let s = ref 0. in
      for i = 0 to t.n - 1 do
        s := !s +. t.data.(i)
      done;
      !s /. float_of_int t.n
    end

  let percentile t p =
    if t.n = 0 then invalid_arg "Stats.Samples.percentile: empty";
    if p < 0. || p > 100. then
      invalid_arg "Stats.Samples.percentile: p outside [0,100]";
    ensure_sorted t;
    let rank = p /. 100. *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then t.data.(lo)
    else begin
      let w = rank -. float_of_int lo in
      ((1. -. w) *. t.data.(lo)) +. (w *. t.data.(hi))
    end

  let cdf ?(points = 50) t =
    if t.n = 0 then []
    else begin
      ensure_sorted t;
      let pts = Stdlib.max 2 (Stdlib.min points t.n) in
      List.init pts (fun i ->
          let rank =
            float_of_int i /. float_of_int (pts - 1) *. float_of_int (t.n - 1)
          in
          let idx = int_of_float (Float.round rank) in
          let idx = Stdlib.min (t.n - 1) (Stdlib.max 0 idx) in
          (t.data.(idx), float_of_int (idx + 1) /. float_of_int t.n))
    end

  let cdf_at t x =
    if t.n = 0 then 0.
    else begin
      ensure_sorted t;
      (* count of samples <= x, binary search for upper bound *)
      let lo = ref 0 and hi = ref t.n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.data.(mid) <= x then lo := mid + 1 else hi := mid
      done;
      float_of_int !lo /. float_of_int t.n
    end
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    bins : int;
    counts : int array;
  }

  let create ~lo ~hi ~bins =
    if hi <= lo then invalid_arg "Stats.Histogram.create: hi <= lo";
    if bins <= 0 then invalid_arg "Stats.Histogram.create: bins <= 0";
    { lo; hi; bins; counts = Array.make bins 0 }

  let add t x =
    let raw =
      int_of_float (float_of_int t.bins *. (x -. t.lo) /. (t.hi -. t.lo))
    in
    let idx = Stdlib.min (t.bins - 1) (Stdlib.max 0 raw) in
    t.counts.(idx) <- t.counts.(idx) + 1

  let counts t = Array.copy t.counts

  let bin_edges t =
    Array.init (t.bins + 1) (fun i ->
        t.lo +. (float_of_int i *. (t.hi -. t.lo) /. float_of_int t.bins))
end
