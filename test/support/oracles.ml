(* Second answers the tests compare the library's with: the detour
   searches behind Table 1, and the exact laws of the workload
   catalogue's draws. *)

open Topology

(* both directions of the protected link *)
let excludes g (l : Link.t) =
  let rev_id =
    match Graph.reverse g l with
    | None -> -1
    | Some r -> r.Link.id
  in
  fun (l' : Link.t) -> l'.Link.id = l.Link.id || l'.Link.id = rev_id

(* The shortest alternative path from the link's source to its
   destination, avoiding both directions of it; [None] when the link
   has no detour. *)
let best_detour g (l : Link.t) =
  let tree =
    Dijkstra.run ~forbidden_links:(excludes g l) ~target:l.Link.dst g
      l.Link.src
  in
  Dijkstra.path_to tree l.Link.dst

(* Every detour of at most [max_intermediate] intermediate nodes,
   keyed by its first intermediate node: {!Detour.Table.find} on a
   fresh table. *)
let detours_via g l ~max_intermediate =
  if max_intermediate < 1 then
    invalid_arg "Oracles.detours_via: max_intermediate must be >= 1";
  Detour.Table.find (Detour.Table.create ~max_intermediate g) l

(* [zipf ~alpha ~objects]: the exact popularity of each object id of a
   catalogue, [(id + 1)^-alpha / H] with the finite-N harmonic number
   [Catalog.draw] samples by. *)
let zipf ~alpha ~objects =
  let harmonic = ref 0. in
  for k = 1 to objects do
    harmonic := !harmonic +. (float_of_int k ** -.alpha)
  done;
  fun id ->
    if id < 0 || id >= objects then invalid_arg "Oracles.zipf: bad object id";
    (float_of_int (id + 1) ** -.alpha) /. !harmonic

(* The exact probability that a catalogue object's chunk count is
   [>= k] under the bounded Pareto on [[chunk_min, chunk_max + 1)],
   floored: [1.] at or below [chunk_min], [0.] above [chunk_max]. *)
let pareto_survival ~shape ~chunk_min ~chunk_max k =
  if k <= chunk_min then 1.
  else if k > chunk_max then 0.
  else begin
    let lo = float_of_int chunk_min
    and hi_excl = float_of_int (chunk_max + 1)
    and x = float_of_int k in
    let c = 1. -. ((lo /. hi_excl) ** shape) in
    (((lo /. x) ** shape) -. ((lo /. hi_excl) ** shape)) /. c
  end
