type t = bool array

let create g = Array.make (Graph.link_count g) true

let check t i =
  if i < 0 || i >= Array.length t then
    invalid_arg (Printf.sprintf "Link_state: link id %d out of range" i)

let is_up t i =
  check t i;
  t.(i)

let set t i ~up =
  check t i;
  t.(i) <- up
