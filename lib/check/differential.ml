type verdict = { equal : bool; detail : string }

(* Eager vs lazy scheduling through the five-level tie order
   (time, epoch, parent, stamp, seq).  An eager scheduler pushes
   events the moment they become known, receiving consecutive default
   stamps; a lazy scheduler pushes the same events later and out of
   order, but carries the stamp each event {e would} have received
   (captured via [next_stamp] in real code).  With the keys fixed, the
   pop order must be identical — this is the contract the interface's
   lazy transmitter depends on. *)
let queue_tie_order ~seed =
  let rng = Sim.Rng.create (Int64.of_int (0x71E00 + seed)) in
  let k = 150 + Sim.Rng.int rng 101 in
  (* coarse key grids force heavy collisions at every tie level *)
  let events =
    Array.init k (fun i ->
        let time = float_of_int (Sim.Rng.int rng 6) *. 0.25 in
        let epoch = float_of_int (Sim.Rng.int rng 3) *. 0.25 in
        let parent = float_of_int (Sim.Rng.int rng 3) *. 0.25 in
        (time, epoch, parent, i))
  in
  let drain q =
    let rec go acc =
      match Sim.Event_queue.pop q with
      | Some (_, v) -> go (v :: acc)
      | None -> List.rev acc
    in
    go []
  in
  let eager = Sim.Event_queue.create () in
  Array.iter
    (fun (time, epoch, parent, i) ->
      Sim.Event_queue.push_fixed ~epoch ~parent eager ~time i)
    events;
  let lazy_q = Sim.Event_queue.create () in
  let order = Array.init k Fun.id in
  Sim.Rng.shuffle rng order;
  Array.iter
    (fun j ->
      let time, epoch, parent, i = events.(j) in
      Sim.Event_queue.push_fixed ~epoch ~parent ~stamp:j lazy_q ~time i)
    order;
  let a = drain eager and b = drain lazy_q in
  if a = b then
    {
      equal = true;
      detail = Printf.sprintf "seed %d: %d events, eager = lazy" seed k;
    }
  else
    let rec first i xs ys =
      match (xs, ys) with
      | x :: xs, y :: ys ->
        if x = y then first (i + 1) xs ys
        else Printf.sprintf "position %d: eager pops %d, lazy pops %d" i x y
      | _ -> "lengths differ"
    in
    {
      equal = false;
      detail = Printf.sprintf "seed %d: %s" seed (first 0 a b);
    }

let sweep ?(domains = 1) ~seeds f =
  (* per-seed runs are independent; fan them across domains and fold
     the verdicts in seed-list order so the summary (including which
     divergence is "first") is identical at any domain count *)
  let verdicts = Parallel.Pool.map_list ~domains (fun seed -> f ~seed) seeds in
  let failures =
    List.filter_map (fun v -> if v.equal then None else Some v.detail) verdicts
  in
  match failures with
  | [] -> { equal = true; detail = Printf.sprintf "%d seeds equal" (List.length seeds) }
  | d :: _ ->
    {
      equal = false;
      detail = Printf.sprintf "%d/%d seeds diverged; first: %s"
          (List.length failures) (List.length seeds) d;
    }
