(* Tests for Dijkstra, link-disjoint paths and ECMP. *)

open Topology
open Support

(* a path's last node *)
let path_dst (p : Path.t) = List.nth p.Path.nodes (Path.hops p)

let diamond () = Fixtures.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ]

(* hop distances from [s] to every node; [max_int] where unreachable *)
let hops_from g s =
  let t = Dijkstra.run g s in
  Array.init (Graph.node_count g) (fun v ->
      Option.value (Dijkstra.hop_distance t v) ~default:max_int)

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_hops_tree () =
  let g = diamond () in
  let t = Dijkstra.run g 0 in
  Alcotest.(check (option int)) "self" (Some 0) (Dijkstra.hop_distance t 0);
  Alcotest.(check (option int)) "one hop" (Some 1) (Dijkstra.hop_distance t 1);
  Alcotest.(check (option int)) "two hops" (Some 2) (Dijkstra.hop_distance t 3)

let test_unreachable () =
  let g = Fixtures.of_edges 4 [ (0, 1); (2, 3) ] in
  let t = Dijkstra.run g 0 in
  Alcotest.(check bool) "unreachable" false (Dijkstra.reachable t 3);
  Alcotest.(check (option int)) "no distance" None (Dijkstra.hop_distance t 3);
  Alcotest.(check bool) "no path" true (Dijkstra.path_to t 3 = None)

let test_forbidden_links () =
  let g = diamond () in
  let l01 = Option.get (Graph.find_link g 0 1) in
  let l10 = Option.get (Graph.find_link g 1 0) in
  let banned (l : Link.t) = l.Link.id = l01.Link.id || l.Link.id = l10.Link.id in
  let t = Dijkstra.run ~forbidden_links:banned g 0 in
  let p = Option.get (Dijkstra.path_to t 3) in
  Alcotest.(check (list int)) "avoids banned link" [ 0; 2; 3 ] p.Path.nodes

(* a node is pruned by pruning the links into it *)
let test_forbidden_nodes () =
  let g = diamond () in
  let t = Dijkstra.run ~forbidden_links:(fun l -> l.Link.dst = 1) g 0 in
  let p = Option.get (Dijkstra.path_to t 3) in
  Alcotest.(check (list int)) "avoids banned node" [ 0; 2; 3 ] p.Path.nodes

let test_path_reconstruction_valid () =
  let g = Fixtures.grid 4 5 in
  let t = Dijkstra.run g 0 in
  for v = 0 to Graph.node_count g - 1 do
    match Dijkstra.path_to t v with
    | None -> Alcotest.fail "grid is connected"
    | Some p ->
      Alcotest.(check int) "path src" 0 (Path.src p);
      Alcotest.(check int) "path dst" v (path_dst p);
      Alcotest.(check int) "path simple" (List.length p.Path.nodes)
        (List.length (List.sort_uniq Int.compare p.Path.nodes))
  done

let test_all_pairs_hops () =
  let g = Fixtures.grid 3 3 in
  let matrix = Array.init (Graph.node_count g) (hops_from g) in
  (* corner to opposite corner of a 3x3 grid is 4 hops *)
  Alcotest.(check int) "corner to corner" 4 matrix.(0).(8);
  Alcotest.(check int) "diagonal zero" 0 matrix.(4).(4);
  (* symmetric because the graph is *)
  Alcotest.(check int) "symmetric" matrix.(2).(6) matrix.(6).(2)

let test_k_disjoint () =
  let g = diamond () in
  let paths = Dijkstra.k_disjoint g ~k:3 0 3 in
  Alcotest.(check int) "two disjoint routes" 2 (List.length paths);
  match paths with
  | [ a; b ] ->
    List.iter
      (fun (l : Link.t) ->
        Alcotest.(check bool) "link-disjoint" false
          (List.exists (fun (l' : Link.t) -> l'.Link.id = l.Link.id) b.Path.links))
      a.Path.links
  | _ -> Alcotest.fail "expected two"

(* ------------------------------------------------------------------ *)
(* ECMP *)

let test_ecmp_enumerates_ties () =
  let g = diamond () in
  let paths = Ecmp.equal_cost_paths g 0 3 in
  Alcotest.(check int) "two equal-cost" 2 (List.length paths);
  List.iter (fun p -> Alcotest.(check int) "2 hops" 2 (Path.hops p)) paths

let test_ecmp_limit () =
  (* 3-stage butterfly has 8 equal-cost paths; limit must cap *)
  let g = Fixtures.grid 2 4 in
  let all = Ecmp.equal_cost_paths ~limit:100 g 0 7 in
  let capped = Ecmp.equal_cost_paths ~limit:2 g 0 7 in
  Alcotest.(check bool) "several paths" true (List.length all >= 3);
  Alcotest.(check int) "capped" 2 (List.length capped)

let test_ecmp_self () =
  let g = diamond () in
  match Ecmp.equal_cost_paths g 2 2 with
  | [ p ] -> Alcotest.(check int) "self path" 0 (Path.hops p)
  | _ -> Alcotest.fail "expected singleton"

let test_ecmp_unreachable () =
  let g = Fixtures.of_edges 3 [ (0, 1) ] in
  Alcotest.(check int) "none" 0 (List.length (Ecmp.equal_cost_paths g 0 2))

let test_ecmp_hash_stability () =
  let a = Ecmp.hash_flow ~flow_id:1234 ~buckets:7 in
  let b = Ecmp.hash_flow ~flow_id:1234 ~buckets:7 in
  Alcotest.(check int) "deterministic" a b;
  Alcotest.check_raises "bad buckets"
    (Invalid_argument "Ecmp.hash_flow: buckets must be positive") (fun () ->
      ignore (Ecmp.hash_flow ~flow_id:1 ~buckets:0))

let test_ecmp_hash_spread () =
  let buckets = 4 in
  let counts = Array.make buckets 0 in
  for flow = 0 to 3999 do
    let b = Ecmp.hash_flow ~flow_id:flow ~buckets in
    counts.(b) <- counts.(b) + 1
  done;
  Array.iter
    (fun c ->
      if c < 800 || c > 1200 then
        Alcotest.failf "bucket skew: %d of 4000 (expected ~1000)" c)
    counts

let test_ecmp_pick () =
  let g = diamond () in
  let paths = Ecmp.equal_cost_paths g 0 3 in
  Alcotest.(check bool) "picks some path" true (Ecmp.pick paths ~flow_id:5 <> None);
  Alcotest.(check bool) "empty gives none" true (Ecmp.pick [] ~flow_id:5 = None);
  (* different flows eventually use both paths *)
  let used = Hashtbl.create 2 in
  for flow = 0 to 63 do
    match Ecmp.pick paths ~flow_id:flow with
    | Some p -> Hashtbl.replace used p.Path.nodes ()
    | None -> ()
  done;
  Alcotest.(check int) "both used" 2 (Hashtbl.length used)

(* ------------------------------------------------------------------ *)
(* Properties *)

let graph_gen =
  QCheck.make
    QCheck.Gen.(pair (int_range 4 30) (int_range 0 10_000))

let connected_er (n, seed) =
  (* raise p until connected; deterministic given inputs *)
  let rec go p =
    let g = Fixtures.erdos_renyi ~seed:(Int64.of_int seed) ~p n in
    if Graph.is_strongly_connected g || p > 0.95 then g else go (p +. 0.1)
  in
  go 0.2

let prop_triangle_inequality =
  QCheck.Test.make ~name:"hop distances obey triangle inequality" ~count:60
    graph_gen (fun (n, seed) ->
      let g = connected_er (n, seed) in
      let nc = Graph.node_count g in
      let m = Array.init nc (hops_from g) in
      let ok = ref true in
      for i = 0 to nc - 1 do
        for j = 0 to nc - 1 do
          for k = 0 to nc - 1 do
            if
              m.(i).(j) < max_int && m.(j).(k) < max_int
              && m.(i).(k) > m.(i).(j) + m.(j).(k)
            then ok := false
          done
        done
      done;
      !ok)

let prop_ecmp_paths_equal_cost =
  QCheck.Test.make ~name:"ecmp paths all have shortest cost" ~count:60
    graph_gen (fun (n, seed) ->
      let g = connected_er (n, seed) in
      let d = Graph.node_count g - 1 in
      match Dijkstra.shortest_path g 0 d with
      | None -> true
      | Some sp ->
        let best = Path.hops sp in
        List.for_all
          (fun p -> Path.hops p = best)
          (Ecmp.equal_cost_paths g 0 d))

(* ECMP against the shortest-path DAG: the number of min-hop paths K
   counted by a DP over the DAG (in BFS order from the source, summing
   over in-links one hop nearer), every returned path valid and
   min-hop, no path twice, [min limit K] of them, and the first of
   them in depth-first order: each path's sequence of out_links
   positions rises strictly, lexicographically, from one path to the
   next, and a smaller limit returns a prefix of the full list. *)
let ecmp_gen =
  QCheck.make
    QCheck.Gen.(
      quad (int_range 4 30) (int_range 0 10_000) (int_range 0 999)
        (int_range 1 12))

let prop_ecmp_dag_count_and_order =
  QCheck.Test.make ~name:"ecmp gives the DAG's paths in DFS order" ~count:80
    ecmp_gen (fun (n, seed, pick, limit) ->
      let g = connected_er (n, seed) in
      let nc = Graph.node_count g in
      let s = pick mod nc and d = pick * 7 / 11 mod nc in
      let dist = hops_from g s in
      let by_dist =
        List.sort
          (fun a b -> Int.compare dist.(a) dist.(b))
          (List.init nc Fun.id)
      in
      let count = Array.make nc 0 in
      count.(s) <- 1;
      List.iter
        (fun v ->
          List.iter
            (fun (l : Link.t) ->
              let u = l.Link.src in
              if dist.(u) < max_int && dist.(u) + 1 = dist.(v) then
                count.(v) <- count.(v) + count.(u))
            (Graph.in_links g v))
        by_dist;
      let k = count.(d) in
      let all = Ecmp.equal_cost_paths ~limit:(max 1 k) g s d in
      let capped = Ecmp.equal_cost_paths ~limit g s d in
      let position (l : Link.t) =
        let rec go i = function
          | [] -> assert false
          | (x : Link.t) :: rest ->
            if x.Link.id = l.Link.id then i else go (i + 1) rest
        in
        go 0 (Graph.out_links g l.Link.src)
      in
      let positions p = List.map position p.Path.links in
      let rec rising = function
        | a :: (b :: _ as rest) -> compare a b < 0 && rising rest
        | [ _ ] | [] -> true
      in
      let rec prefix n = function
        | x :: rest when n > 0 -> x :: prefix (n - 1) rest
        | _ -> []
      in
      let rec contiguous = function
        | (a : Link.t) :: ((b : Link.t) :: _ as rest) ->
          a.Link.dst = b.Link.src && contiguous rest
        | [ _ ] | [] -> true
      in
      let valid p =
        Path.src p = s && path_dst p = d && Path.hops p = dist.(d)
        && contiguous p.Path.links
      in
      List.length all = k
      && List.length capped = min limit k
      && List.for_all valid all
      && rising (List.map positions all)
      && List.map positions capped = prefix limit (List.map positions all))

(* greedy disjoint paths: each search runs on a subgraph of the one
   before, so costs never fall, and the first is the shortest path *)
let prop_k_disjoint =
  QCheck.Test.make ~name:"k_disjoint: shortest first, disjoint" ~count:40
    graph_gen (fun (n, seed) ->
      let g = connected_er (n, seed) in
      let d = Graph.node_count g - 1 in
      let paths = Dijkstra.k_disjoint g ~k:4 0 d in
      let hops = List.map Path.hops paths in
      let ids =
        List.concat_map
          (fun p -> List.map (fun (l : Link.t) -> l.Link.id) p.Path.links)
          paths
      in
      (match (Dijkstra.shortest_path g 0 d, hops) with
      | None, [] -> true
      | Some sp, h :: _ -> h = Path.hops sp
      | _ -> false)
      && hops = List.sort Int.compare hops
      && List.length ids = List.length (List.sort_uniq Int.compare ids)
      && List.for_all (fun p -> Path.src p = 0 && path_dst p = d) paths)

(* early exit: random graph, random pruning (a salted hash picks about
   one link in five, and the links into about one node in eight), every
   target from node 0 *)
let pruned_gen =
  QCheck.make
    QCheck.Gen.(triple (int_range 4 30) (int_range 0 10_000) (int_range 0 1_000))

let pruning salt =
  let pick x m = Hashtbl.hash (x, salt) mod m = 0 in
  fun (l : Link.t) -> pick l.Link.id 5 || pick (l.Link.dst + 100_000) 8

let link_ids = function
  | None -> None
  | Some p -> Some (List.map (fun (l : Link.t) -> l.Link.id) p.Path.links)

let prop_target_exit_exact =
  QCheck.Test.make ~name:"dijkstra ~target gives the full run's path"
    ~count:80 pruned_gen (fun (n, seed, salt) ->
      let g = connected_er (n, seed) in
      let forbidden_links = pruning salt in
      let full = Dijkstra.run ~forbidden_links g 0 in
      List.for_all
        (fun t ->
          let early =
            Dijkstra.run ~forbidden_links ~target:t g 0
          in
          link_ids (Dijkstra.path_to early t) = link_ids (Dijkstra.path_to full t))
        (List.init (Graph.node_count g) Fun.id))

(* Reference search: [Dijkstra.run] as it was written before it read
   the graph's adjacency rows, relaxing each settled node's
   [Graph.out_links] list through a closure.  It makes the same heap
   calls in the same order, so [run] must match it entry for entry,
   ties included, on full and on target-stopped searches. *)
let reference_run ?(forbidden_links = fun _ -> false) ?(target = -1) g s =
  let n = Graph.node_count g in
  let dist = Array.make n infinity and pred = Array.make n (-1) in
  let heap = Dijkstra.Heap.create () in
  dist.(s) <- 0.;
  Dijkstra.Heap.push heap 0. s;
  let relax (l : Link.t) =
    let v = l.Link.dst in
    if not (forbidden_links l) then begin
      let nd = dist.(l.Link.src) +. 1. in
      if nd < dist.(v) then begin
        dist.(v) <- nd;
        pred.(v) <- l.Link.id;
        Dijkstra.Heap.push heap nd v
      end
    end
  in
  (* [Heap] exposes no peek, so a pop's priority is recovered from
     [dist]: a popped entry is stale exactly when its node has already
     been settled, and the first pop of a node is its final entry *)
  let settled = Array.make n false in
  let rec loop () =
    if not (Dijkstra.Heap.is_empty heap) then begin
      let u = Dijkstra.Heap.pop heap in
      if settled.(u) then loop ()
      else begin
        settled.(u) <- true;
        if u <> target then begin
          List.iter relax (Graph.out_links g u);
          loop ()
        end
      end
    end
  in
  loop ();
  (dist, pred)

(* every node's distance and reconstructed path from [run] against the
   reference's arrays *)
let matches_reference ?forbidden_links ?target g s =
  let t = Dijkstra.run ?forbidden_links ?target g s in
  let dist, pred = reference_run ?forbidden_links ?target g s in
  let ref_path v =
    if not (Float.is_finite dist.(v)) then None
    else begin
      let rec back acc u =
        if u = s then acc
        else
          let l = Graph.link g pred.(u) in
          back (l.Link.id :: acc) l.Link.src
      in
      Some (back [] v)
    end
  in
  List.for_all
    (fun v ->
      let d =
        if Float.is_finite dist.(v) then Some (int_of_float dist.(v)) else None
      in
      let path = link_ids (Dijkstra.path_to t v) in
      Dijkstra.hop_distance t v = d
      && Option.map List.length path = d
      && path = ref_path v)
    (List.init (Graph.node_count g) Fun.id)

(* every source, with and without the filters, a full search and one
   stopped at a target *)
let all_searches_match g salt =
  let n = Graph.node_count g in
  let forbidden_links = pruning salt in
  List.for_all
    (fun s ->
      let target = ((s * 7) + 3) mod n in
      matches_reference g s
      && matches_reference ~target g s
      && matches_reference ~forbidden_links g s
      && matches_reference ~forbidden_links ~target g s)
    (List.init n Fun.id)

let test_zoo_matches_reference () =
  List.iteri
    (fun salt isp ->
      Alcotest.(check bool)
        (Isp_zoo.name isp ^ " searches match the reference")
        true
        (all_searches_match (Isp_zoo.graph isp) salt))
    Isp_zoo.all

(* dense directed graphs: each ordered pair gets a link with
   probability about [p], so many links are one-way and many paths tie
   on hop count for the relax order to break *)
let dense_directed (n, seed, p) =
  let b = Graph.Builder.create () in
  for i = 0 to n - 1 do
    ignore (Graph.Builder.add_node b (string_of_int i))
  done;
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Hashtbl.hash (u, v, seed) mod 100 < p then
        Graph.Builder.add_link b u v
    done
  done;
  Graph.Builder.build b

let prop_dense_matches_reference =
  QCheck.Test.make ~name:"dijkstra matches the list-walking reference"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         quad (int_range 2 24) (int_range 0 10_000) (int_range 20 90)
           (int_range 0 1_000)))
    (fun (n, seed, p, salt) ->
      all_searches_match (dense_directed (n, seed, p)) salt)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing"
    [
      ( "dijkstra",
        [
          Alcotest.test_case "hop tree" `Quick test_hops_tree;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "forbidden links" `Quick test_forbidden_links;
          Alcotest.test_case "forbidden nodes" `Quick test_forbidden_nodes;
          Alcotest.test_case "reconstruction validity" `Quick test_path_reconstruction_valid;
          Alcotest.test_case "all pairs" `Quick test_all_pairs_hops;
          Alcotest.test_case "disjoint" `Quick test_k_disjoint;
          Alcotest.test_case "isp zoo matches reference" `Quick
            test_zoo_matches_reference;
        ] );
      ( "ecmp",
        [
          Alcotest.test_case "enumerates ties" `Quick test_ecmp_enumerates_ties;
          Alcotest.test_case "limit" `Quick test_ecmp_limit;
          Alcotest.test_case "self" `Quick test_ecmp_self;
          Alcotest.test_case "unreachable" `Quick test_ecmp_unreachable;
          Alcotest.test_case "hash stability" `Quick test_ecmp_hash_stability;
          Alcotest.test_case "hash spread" `Quick test_ecmp_hash_spread;
          Alcotest.test_case "pick" `Quick test_ecmp_pick;
        ] );
      ( "properties",
        qc
          [
            prop_triangle_inequality;
            prop_ecmp_paths_equal_cost;
            prop_ecmp_dag_count_and_order;
            prop_k_disjoint;
            prop_target_exit_exact;
            prop_dense_matches_reference;
          ] );
    ]
