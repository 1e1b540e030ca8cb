type tree = {
  t_graph : Graph.t;
  t_source : Node.id;
  dist : float array;  (* infinity when unreachable *)
  pred : int array;    (* id of the link used to reach the node, or -1 *)
}

(* Minimal binary heap on (distance, node) pairs, kept in parallel
   arrays so a push or pop allocates nothing.  Stale entries are
   skipped on pop (lazy deletion), the standard Dijkstra trick. *)
module Heap = struct
  type t = {
    mutable prio : float array;
    mutable node : int array;
    mutable size : int;
  }

  let create () = { prio = Array.make 64 0.; node = Array.make 64 0; size = 0 }

  let is_empty h = h.size = 0

  let swap h i j =
    let tp = h.prio.(i) and tn = h.node.(i) in
    h.prio.(i) <- h.prio.(j);
    h.node.(i) <- h.node.(j);
    h.prio.(j) <- tp;
    h.node.(j) <- tn

  let grow h =
    let bigger a fill =
      let b = Array.make (2 * h.size) fill in
      Array.blit a 0 b 0 h.size;
      b
    in
    h.prio <- bigger h.prio 0.;
    h.node <- bigger h.node 0

  (* inlined into [run]'s relax loop, so the priority stays unboxed *)
  let[@inline] push h prio v =
    if h.size = Array.length h.prio then grow h;
    h.prio.(h.size) <- prio;
    h.node.(h.size) <- v;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.prio.((!i - 1) / 2) > h.prio.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  (* priority of the minimum; the heap must be non-empty *)
  let min_prio h = h.prio.(0)

  (* remove the minimum and return its node; the heap must be
     non-empty *)
  let pop h =
    let top = h.node.(0) in
    h.size <- h.size - 1;
    h.prio.(0) <- h.prio.(h.size);
    h.node.(0) <- h.node.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.prio.(l) < h.prio.(!smallest) then smallest := l;
      if r < h.size && h.prio.(r) < h.prio.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        swap h !i !smallest;
        i := !smallest
      end
      else continue := false
    done;
    top
end

let run ?forbidden_links ?forbidden_nodes ?(target = -1) g s =
  let n = Graph.node_count g in
  if s < 0 || s >= n then invalid_arg "Dijkstra.run: bad source";
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let heap = Heap.create () in
  let rows = Graph.rows g in
  let first = rows.Graph.first and link = rows.Graph.link
  and head = rows.Graph.head in
  dist.(s) <- 0.;
  Heap.push heap 0. s;
  (* A node is pushed only on a strict improvement, so exactly one of
     its heap entries carries its final distance: that entry settles it,
     and every other one is stale.  Relaxing out of a settled node u
     starts from its popped distance, which is dist.(u) and final.  A
     link into an already-settled node never improves it (weights are
     non-negative), so no separate settled set is needed.

     Early exit: a settled node's predecessor chain is never touched
     again, so stopping at [target] leaves its path exactly as a full
     run would. *)
  let searching = ref true in
  while !searching && not (Heap.is_empty heap) do
    let d = Heap.min_prio heap in
    let u = Heap.pop heap in
    if d <= dist.(u) then
      if u = target then searching := false
      else
        for i = first.(u) to first.(u + 1) - 1 do
          let v = head.(i) and id = link.(i) in
          let pruned =
            (match forbidden_links with
            | None -> false
            | Some f -> f (Graph.link g id))
            ||
            match forbidden_nodes with
            | None -> false
            | Some f -> f v
          in
          if not pruned then begin
            let nd = d +. 1. in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              pred.(v) <- id;
              Heap.push heap nd v
            end
          end
        done
  done;
  { t_graph = g; t_source = s; dist; pred }

let reachable t v = Float.is_finite t.dist.(v)

let path_to t v =
  if not (reachable t v) then None
  else begin
    let rec build acc u =
      if u = t.t_source then acc
      else
        match t.pred.(u) with
        | -1 -> acc (* unreachable intermediate: impossible by invariant *)
        | id ->
          let l = Graph.link t.t_graph id in
          build (l :: acc) l.Link.src
    in
    let links = build [] v in
    if v = t.t_source then Some (Path.singleton v)
    else
      match Path.of_links links with
      | Ok p -> Some p
      | Error _ -> None
  end

(* a distance is the hop count of its [pred] chain: each relaxation
   sets both from the same settled node *)
let hop_distance t v =
  let d = t.dist.(v) in
  if Float.is_finite d then Some (int_of_float d) else None

let shortest_path g s d = path_to (run ~target:d g s) d

let k_disjoint g ~k s d =
  if k <= 0 then invalid_arg "Dijkstra.k_disjoint: k must be positive";
  let used = Hashtbl.create 16 in
  let rec collect acc remaining =
    if remaining = 0 then List.rev acc
    else
      let tree =
        run ~forbidden_links:(fun l -> Hashtbl.mem used l.Link.id) ~target:d
          g s
      in
      match path_to tree d with
      | None -> List.rev acc
      | Some p ->
        List.iter
          (fun (l : Link.t) -> Hashtbl.replace used l.Link.id ())
          p.Path.links;
        collect (p :: acc) (remaining - 1)
  in
  collect [] k
