type t = { up : bool array; mutable gen : int }

let create g = { up = Array.make (Graph.link_count g) true; gen = 0 }

let check t i =
  if i < 0 || i >= Array.length t.up then
    invalid_arg (Printf.sprintf "Link_state: link id %d out of range" i)

let is_up t i =
  check t i;
  t.up.(i)

let set t i ~up =
  check t i;
  t.up.(i) <- up;
  t.gen <- t.gen + 1

let gen t = t.gen
