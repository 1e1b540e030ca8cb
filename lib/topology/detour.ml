type availability =
  | Detour of int
  | Unavailable

type profile = {
  one_hop : float;
  two_hop : float;
  three_plus : float;
  unavailable : float;
  total_links : int;
}

(* Table 1 needs only the hop count of the shortest alternative, and
   hop distances are unique, so a BFS gives the class that a Dijkstra
   search for the shortest alternative path gives.  [dist] holds -1 for undiscovered
   nodes; a search leaves the nodes it discovered in
   [queue.(0 .. tail - 1)] and resets exactly those, so one workspace
   serves every link of a graph. *)
type bfs = {
  dist : int array;
  queue : int array;
}

let bfs_workspace g =
  let n = Graph.node_count g in
  { dist = Array.make n (-1); queue = Array.make n 0 }

let classify_with ws g (l : Link.t) =
  let rev_id =
    match Graph.reverse g l with
    | None -> -1
    | Some r -> r.Link.id
  in
  let dist = ws.dist and queue = ws.queue in
  let u = l.Link.src and v = l.Link.dst in
  dist.(u) <- 0;
  queue.(0) <- u;
  let head = ref 0 and tail = ref 1 in
  (* discover the unseen heads of the links at distance [d], stopping
     at [v] *)
  let rec scan d = function
    | [] -> ()
    | (e : Link.t) :: rest ->
      let y = e.Link.dst in
      if dist.(y) >= 0 || e.Link.id = l.Link.id || e.Link.id = rev_id then
        scan d rest
      else begin
        dist.(y) <- d;
        queue.(!tail) <- y;
        incr tail;
        if y <> v then scan d rest
      end
  in
  while !head < !tail && dist.(v) < 0 do
    let x = queue.(!head) in
    incr head;
    scan (dist.(x) + 1) (Graph.out_links g x)
  done;
  let hops = dist.(v) in
  for i = 0 to !tail - 1 do
    dist.(queue.(i)) <- -1
  done;
  if hops < 0 then Unavailable else Detour (hops - 1)

let classify_link g l = classify_with (bfs_workspace g) g l

(* Detour search.  The search from neighbour [w] of [u] never enters
   [u], so it never relaxes the protected link [u -> v] or its reverse
   and its result does not depend on [v]: one search per first hop
   serves every link out of [u].  It is {!Dijkstra.run}'s search with
   the hop metric, on the same heap, so equal-distance nodes settle in
   the same order and take the same predecessors.  Without a target it
   runs on past any [v], which changes nothing for [v]: [v]'s
   predecessor is fixed once every node one hop nearer has relaxed,
   before [v] is popped.  It does not relax out of nodes at the bound,
   which is exact for every node within it, since those nodes are all
   pushed before the first node at the bound is popped. *)
module Table = struct
  type t = {
    g : Graph.t;
    max_intermediate : int;
    conts : int array array;
        (* per source [u] with out-links [e_0 .. e_(k-1)]: entry
           [((i * k) + j) * max_intermediate + h] is the id of the h-th
           link of the continuation from [e_i]'s head to [e_j]'s head,
           -1 past its end or when there is none; empty until [u]'s
           searches have run *)
    lists : (Node.id * Path.t) list array;  (* per link id *)
    listed : bool array;  (* per link id: [lists] holds its list *)
    dist : int array;  (* hops from the search's source; max_int unreached *)
    pred : int array;  (* link id into the node, where [dist] is set *)
    reached : int array;  (* nodes whose [dist] is set, to reset *)
    mutable n_reached : int;
    heap : Dijkstra.Heap.t;
  }

  let create ?(max_intermediate = 2) g =
    if max_intermediate < 1 then
      invalid_arg "Detour.Table.create: max_intermediate must be >= 1";
    let n = Graph.node_count g and m = Graph.link_count g in
    {
      g;
      max_intermediate;
      conts = Array.make n [||];
      lists = Array.make m [];
      listed = Array.make m false;
      dist = Array.make n max_int;
      pred = Array.make n (-1);
      reached = Array.make n 0;
      n_reached = 0;
      heap = Dijkstra.Heap.create ();
    }

  let reach t x d link =
    t.dist.(x) <- d;
    t.pred.(x) <- link;
    t.reached.(t.n_reached) <- x;
    t.n_reached <- t.n_reached + 1;
    Dijkstra.Heap.push t.heap (float_of_int d) x

  (* hop distances from [w] avoiding node [avoid], up to the bound *)
  let search t ~avoid w =
    let dist = t.dist and heap = t.heap in
    let rec relax d = function
      | [] -> ()
      | (e : Link.t) :: rest ->
        let y = e.Link.dst in
        if y <> avoid && d < dist.(y) then reach t y d e.Link.id;
        relax d rest
    in
    reach t w 0 (-1);
    while not (Dijkstra.Heap.is_empty heap) do
      let x = Dijkstra.Heap.pop heap in
      let d = dist.(x) in
      if d < t.max_intermediate then relax (d + 1) (Graph.out_links t.g x)
    done

  let reset t =
    for i = 0 to t.n_reached - 1 do
      t.dist.(t.reached.(i)) <- max_int
    done;
    t.n_reached <- 0

  (* one search per out-link of [u], recorded as [conts] *)
  let searches t u outs =
    let k = Array.length outs and b = t.max_intermediate in
    let conts = Array.make (k * k * b) (-1) in
    Array.iteri
      (fun i (first : Link.t) ->
        let w = first.Link.dst in
        search t ~avoid:u w;
        Array.iteri
          (fun j (l : Link.t) ->
            let v = l.Link.dst in
            let d = t.dist.(v) in
            (* [v = w]: the protected link itself, not a detour *)
            if v <> w && d <= b then begin
              let x = ref v in
              for h = d - 1 downto 0 do
                let id = t.pred.(!x) in
                conts.((((i * k) + j) * b) + h) <- id;
                x := (Graph.link t.g id).Link.src
              done
            end)
          outs;
        reset t)
      outs;
    conts

  (* Sort by detour length, then neighbour id, for determinism. *)
  let by_length (w1, p1) (w2, p2) =
    match Int.compare (Path.hops p1) (Path.hops p2) with
    | 0 -> Int.compare w1 w2
    | c -> c

  let find t (l : Link.t) =
    let id = l.Link.id in
    if not t.listed.(id) then begin
      let u = l.Link.src and b = t.max_intermediate in
      let outs = Array.of_list (Graph.out_links t.g u) in
      if Array.length t.conts.(u) = 0 then t.conts.(u) <- searches t u outs;
      let conts = t.conts.(u) and k = Array.length outs in
      let j = ref 0 in
      while outs.(!j).Link.id <> id do
        incr j
      done;
      let candidates = ref [] in
      for i = k - 1 downto 0 do
        let base = ((i * k) + !j) * b in
        let rec continuation h =
          if h = b || conts.(base + h) < 0 then []
          else Graph.link t.g conts.(base + h) :: continuation (h + 1)
        in
        if conts.(base) >= 0 then
          match Path.of_links (outs.(i) :: continuation 0) with
          | Ok p -> candidates := (outs.(i).Link.dst, p) :: !candidates
          | Error _ -> ()
      done;
      t.lists.(id) <- List.sort by_length !candidates;
      t.listed.(id) <- true
    end;
    t.lists.(id)
end

let classify_links g =
  let links = Graph.undirected_links g in
  let total = List.length links in
  let ws = bfs_workspace g in
  let n1 = ref 0 and n2 = ref 0 and n3 = ref 0 and na = ref 0 in
  List.iter
    (fun l ->
      match classify_with ws g l with
      | Detour 1 -> incr n1
      | Detour 2 -> incr n2
      | Detour _ -> incr n3
      | Unavailable -> incr na)
    links;
  let frac c = if total = 0 then 0. else float_of_int c /. float_of_int total in
  {
    one_hop = frac !n1;
    two_hop = frac !n2;
    three_plus = frac !n3;
    unavailable = frac !na;
    total_links = total;
  }

let pp_profile ppf p =
  Format.fprintf ppf "1hop=%.2f%% 2hops=%.2f%% 3+hops=%.2f%% N/A=%.2f%% (%d links)"
    (100. *. p.one_hop) (100. *. p.two_hop) (100. *. p.three_plus)
    (100. *. p.unavailable) p.total_links
