type rows = {
  first : int array;
  link : int array;
  head : int array;
}

type t = {
  node_arr : Node.t array;
  link_arr : Link.t array;
  out_adj : Link.t list array;   (* out-links per node, insertion order *)
  in_adj : Link.t list array;
  rows : rows;  (* [out_adj] flattened, built once and never written *)
}

module Builder = struct
  type graph = t

  type pending_link = {
    p_src : Node.id;
    p_dst : Node.id;
    p_capacity : float;
    p_delay : float;
  }

  type t = {
    mutable rev_nodes : Node.t list;
    mutable n : int;
    mutable rev_links : pending_link list;
    mutable m : int;
  }

  let create () = { rev_nodes = []; n = 0; rev_links = []; m = 0 }

  let add_node b ?(role = Node.Core) name =
    let id = b.n in
    b.rev_nodes <- Node.make ~role id name :: b.rev_nodes;
    b.n <- id + 1;
    id

  let check_endpoint b u =
    if u < 0 || u >= b.n then
      invalid_arg (Printf.sprintf "Graph.Builder: unknown node %d" u)

  let add_link b ?(capacity = 1e9) ?(delay = 1e-3) u v =
    check_endpoint b u;
    check_endpoint b v;
    if u = v then invalid_arg "Graph.Builder.add_link: self-loop";
    if capacity <= 0. then invalid_arg "Graph.Builder.add_link: capacity <= 0";
    if delay < 0. then invalid_arg "Graph.Builder.add_link: delay < 0";
    b.rev_links <-
      { p_src = u; p_dst = v; p_capacity = capacity; p_delay = delay }
      :: b.rev_links;
    b.m <- b.m + 1

  let add_edge b ?capacity ?delay u v =
    add_link b ?capacity ?delay u v;
    add_link b ?capacity ?delay v u

  (* A counting sort by tail fills the rows in link-id order, which is
     insertion order, so each row lists its node's links as [out_adj]
     does. *)
  let fill_rows n (link_arr : Link.t array) =
    let m = Array.length link_arr in
    let first = Array.make (n + 1) 0 in
    Array.iter
      (fun (l : Link.t) -> first.(l.Link.src + 1) <- first.(l.Link.src + 1) + 1)
      link_arr;
    for u = 1 to n do
      first.(u) <- first.(u) + first.(u - 1)
    done;
    let next = Array.sub first 0 n in
    let link = Array.make m 0 and head = Array.make m 0 in
    Array.iter
      (fun (l : Link.t) ->
        let i = next.(l.Link.src) in
        link.(i) <- l.Link.id;
        head.(i) <- l.Link.dst;
        next.(l.Link.src) <- i + 1)
      link_arr;
    { first; link; head }

  (* [stamp.(v) = u] once [u]'s row has shown a link to [v]; among the
     repeats the lowest link id is reported, the first repeat a walk in
     insertion order meets *)
  let check_duplicates n rows (link_arr : Link.t array) =
    let stamp = Array.make n (-1) and repeat = ref max_int in
    for u = 0 to n - 1 do
      for i = rows.first.(u) to rows.first.(u + 1) - 1 do
        let v = rows.head.(i) in
        if stamp.(v) = u then repeat := Int.min !repeat rows.link.(i)
        else stamp.(v) <- u
      done
    done;
    if !repeat < max_int then begin
      let l = link_arr.(!repeat) in
      invalid_arg
        (Printf.sprintf "Graph.Builder.build: duplicate link %d->%d"
           l.Link.src l.Link.dst)
    end

  let build b =
    let node_arr = Array.of_list (List.rev b.rev_nodes) in
    let n = Array.length node_arr in
    let pendings = List.rev b.rev_links in
    let link_arr =
      Array.of_list
        (List.mapi
           (fun id p ->
             Link.make ~id ~src:p.p_src ~dst:p.p_dst ~capacity:p.p_capacity
               ~delay:p.p_delay)
           pendings)
    in
    let rows = fill_rows n link_arr in
    check_duplicates n rows link_arr;
    let out_adj =
      Array.init n (fun u ->
          let acc = ref [] in
          for i = rows.first.(u + 1) - 1 downto rows.first.(u) do
            acc := link_arr.(rows.link.(i)) :: !acc
          done;
          !acc)
    in
    let in_adj = Array.make n [] in
    for i = Array.length link_arr - 1 downto 0 do
      let l = link_arr.(i) in
      in_adj.(l.Link.dst) <- l :: in_adj.(l.Link.dst)
    done;
    { node_arr; link_arr; out_adj; in_adj; rows }
end

let node_count g = Array.length g.node_arr
let link_count g = Array.length g.link_arr
let node g i = g.node_arr.(i)
let link g i = g.link_arr.(i)
let nodes g = Array.to_list g.node_arr
let links g = Array.to_list g.link_arr
let out_links g u = g.out_adj.(u)
let in_links g u = g.in_adj.(u)
let out_degree g u = g.rows.first.(u + 1) - g.rows.first.(u)
let rows g = g.rows

(* top level, so a lookup allocates only its [Some] *)
let rec find_in_row g v i stop =
  if i >= stop then None
  else if g.rows.head.(i) = v then Some g.link_arr.(g.rows.link.(i))
  else find_in_row g v (i + 1) stop

let find_link g u v =
  if u < 0 || u >= node_count g then None
  else find_in_row g v g.rows.first.(u) g.rows.first.(u + 1)

let reverse g (l : Link.t) = find_link g l.Link.dst l.Link.src

let undirected_links g =
  let keep (l : Link.t) =
    match reverse g l with
    | None -> true
    | Some r -> l.Link.id < r.Link.id
  in
  List.filter keep (links g)

let total_capacity g =
  Array.fold_left (fun acc (l : Link.t) -> acc +. l.Link.capacity) 0. g.link_arr

(* every node reached from node 0 over [adj]'s links, stepping to
   [ahead l] *)
let reaches_all g adj ahead =
  let n = node_count g in
  let seen = Array.make n false and stack = Array.make n 0 in
  seen.(0) <- true;
  let top = ref 1 and visited = ref 1 in
  while !top > 0 do
    decr top;
    List.iter
      (fun l ->
        let v = ahead l in
        if not seen.(v) then begin
          seen.(v) <- true;
          incr visited;
          stack.(!top) <- v;
          incr top
        end)
      adj.(stack.(!top))
  done;
  !visited = n

let is_strongly_connected g =
  node_count g = 0
  || (reaches_all g g.out_adj (fun (l : Link.t) -> l.Link.dst)
     && reaches_all g g.in_adj (fun (l : Link.t) -> l.Link.src))

let pp ppf g =
  Format.fprintf ppf "graph(%d nodes, %d links, %.3g bps total)"
    (node_count g) (link_count g) (total_capacity g)
