let validate throughputs =
  Array.iter
    (fun t ->
      if t < 0. || Float.is_nan t then
        invalid_arg "Fairness: negative or NaN throughput")
    throughputs

let jain throughputs =
  validate throughputs;
  let n = Array.length throughputs in
  if n = 0 then 1.
  else begin
    let sum = Array.fold_left ( +. ) 0. throughputs in
    let sum_sq = Array.fold_left (fun acc t -> acc +. (t *. t)) 0. throughputs in
    if sum_sq = 0. then 1. else sum *. sum /. (float_of_int n *. sum_sq)
  end

