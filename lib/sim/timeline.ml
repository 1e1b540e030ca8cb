type t = {
  start : float;
  mutable last_time : float;
  mutable last_value : float;
  mutable area : float;         (* integral over [start, last_time] *)
}

let create ~start = { start; last_time = start; last_value = 0.; area = 0. }

let record t ~time v =
  if time < t.last_time then
    invalid_arg
      (Printf.sprintf "Timeline.record: time %g < last %g" time t.last_time);
  t.area <- t.area +. (t.last_value *. (time -. t.last_time));
  t.last_time <- time;
  t.last_value <- v

let integral t ~until =
  if until < t.last_time then
    invalid_arg "Timeline.integral: until precedes last record";
  t.area +. (t.last_value *. (until -. t.last_time))

let time_average t ~until =
  let span = until -. t.start in
  if span <= 0. then 0. else integral t ~until /. span
