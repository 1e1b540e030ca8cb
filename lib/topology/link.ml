type t = {
  id : int;
  src : Node.id;
  dst : Node.id;
  capacity : float;
  delay : float;
}

let make ~id ~src ~dst ~capacity ~delay =
  if capacity <= 0. then invalid_arg "Link.make: capacity must be > 0";
  if delay < 0. then invalid_arg "Link.make: delay must be >= 0";
  if src = dst then invalid_arg "Link.make: self-loop";
  { id; src; dst; capacity; delay }

