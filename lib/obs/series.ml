type t = {
  s_name : string;
  s_labels : Metric.labels;
  mutable times : float array;
  mutable values : float array;
  mutable n : int;
}

let create ?(labels = []) name =
  {
    s_name = name;
    s_labels = labels;
    times = Array.make 16 0.;
    values = Array.make 16 0.;
    n = 0;
  }

let name t = t.s_name
let labels t = t.s_labels

let add t ~time v =
  if t.n > 0 && time < t.times.(t.n - 1) then
    invalid_arg "Series.add: time went backwards";
  if t.n = Array.length t.times then begin
    let cap = 2 * t.n in
    let grow a =
      let bigger = Array.make cap 0. in
      Array.blit a 0 bigger 0 t.n;
      bigger
    in
    t.times <- grow t.times;
    t.values <- grow t.values
  end;
  t.times.(t.n) <- time;
  t.values.(t.n) <- v;
  t.n <- t.n + 1

let iter f t =
  for i = 0 to t.n - 1 do
    f ~time:t.times.(i) t.values.(i)
  done

