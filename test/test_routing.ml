(* Tests for Dijkstra, Yen's k-shortest paths and ECMP. *)

open Topology

let diamond () = Graph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ]

(* Weighted graph where the hop-shortest and delay-shortest paths
   differ: 0-1-3 is 2 hops with 10ms total, 0-2-3 is 2 hops with 2ms,
   and 0-3 direct is 1 hop with 50ms. *)
let weighted () =
  let b = Graph.Builder.create () in
  let n = Array.init 4 (fun i -> Graph.Builder.add_node b (string_of_int i)) in
  Graph.Builder.add_edge b ~delay:5e-3 n.(0) n.(1);
  Graph.Builder.add_edge b ~delay:5e-3 n.(1) n.(3);
  Graph.Builder.add_edge b ~delay:1e-3 n.(0) n.(2);
  Graph.Builder.add_edge b ~delay:1e-3 n.(2) n.(3);
  Graph.Builder.add_edge b ~delay:50e-3 n.(0) n.(3);
  Graph.Builder.build b

(* ------------------------------------------------------------------ *)
(* Dijkstra *)

let test_hops_tree () =
  let g = diamond () in
  let t = Dijkstra.run g 0 in
  Alcotest.(check (option (float 0.))) "self" (Some 0.) (Dijkstra.distance t 0);
  Alcotest.(check (option (float 0.))) "one hop" (Some 1.) (Dijkstra.distance t 1);
  Alcotest.(check (option (float 0.))) "two hops" (Some 2.) (Dijkstra.distance t 3);
  Alcotest.(check int) "source" 0 (Dijkstra.source t)

let test_metric_choice () =
  let g = weighted () in
  let by_hops = Option.get (Dijkstra.shortest_path ~metric:Dijkstra.Hops g 0 3) in
  Alcotest.(check int) "hop metric takes direct link" 1 (Path.hops by_hops);
  let by_delay = Option.get (Dijkstra.shortest_path ~metric:Dijkstra.Delay g 0 3) in
  Alcotest.(check (list int)) "delay metric takes fast branch" [ 0; 2; 3 ]
    by_delay.Path.nodes

let test_unreachable () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let t = Dijkstra.run g 0 in
  Alcotest.(check bool) "unreachable" false (Dijkstra.reachable t 3);
  Alcotest.(check (option (float 0.))) "no distance" None (Dijkstra.distance t 3);
  Alcotest.(check bool) "no path" true (Dijkstra.path_to t 3 = None)

let test_forbidden_links () =
  let g = diamond () in
  let l01 = Option.get (Graph.find_link g 0 1) in
  let l10 = Option.get (Graph.find_link g 1 0) in
  let banned (l : Link.t) = l.Link.id = l01.Link.id || l.Link.id = l10.Link.id in
  let t = Dijkstra.run ~forbidden_links:banned g 0 in
  let p = Option.get (Dijkstra.path_to t 3) in
  Alcotest.(check (list int)) "avoids banned link" [ 0; 2; 3 ] p.Path.nodes

let test_forbidden_nodes () =
  let g = diamond () in
  let t = Dijkstra.run ~forbidden_nodes:(fun u -> u = 1) g 0 in
  let p = Option.get (Dijkstra.path_to t 3) in
  Alcotest.(check (list int)) "avoids banned node" [ 0; 2; 3 ] p.Path.nodes

let test_path_reconstruction_valid () =
  let g = Builders.grid 4 5 in
  let t = Dijkstra.run g 0 in
  for v = 0 to Graph.node_count g - 1 do
    match Dijkstra.path_to t v with
    | None -> Alcotest.fail "grid is connected"
    | Some p ->
      Alcotest.(check int) "path src" 0 (Path.src p);
      Alcotest.(check int) "path dst" v (Path.dst p);
      Alcotest.(check bool) "path simple" true (Path.is_simple p)
  done

let test_all_pairs_matches_bfs () =
  let g = Builders.grid 3 3 in
  let matrix = Dijkstra.all_pairs_hops g in
  (* corner to opposite corner of a 3x3 grid is 4 hops *)
  Alcotest.(check int) "corner to corner" 4 matrix.(0).(8);
  Alcotest.(check int) "diagonal zero" 0 matrix.(4).(4);
  (* symmetric because the graph is *)
  Alcotest.(check int) "symmetric" matrix.(2).(6) matrix.(6).(2)

let test_eccentricity () =
  let g = Builders.line 5 in
  Alcotest.(check (option int)) "end of line" (Some 4) (Dijkstra.eccentricity g 0);
  Alcotest.(check (option int)) "middle" (Some 2) (Dijkstra.eccentricity g 2)

let test_next_hops () =
  let g = diamond () in
  let hops = Dijkstra.next_hops g 0 ~dst:3 in
  let firsts = List.map (fun (l : Link.t) -> l.Link.dst) hops in
  Alcotest.(check (list int)) "both branches tie" [ 1; 2 ]
    (List.sort Int.compare firsts);
  Alcotest.(check (list int)) "self" []
    (List.map (fun (l : Link.t) -> l.Link.dst) (Dijkstra.next_hops g 3 ~dst:3))

(* ------------------------------------------------------------------ *)
(* Yen *)

let test_yen_basic () =
  let g = diamond () in
  let paths = Yen.k_shortest g ~k:3 0 3 in
  Alcotest.(check int) "only two loopless" 2 (List.length paths);
  List.iter
    (fun p -> Alcotest.(check int) "both are 2 hops" 2 (Path.hops p))
    paths;
  (* distinct *)
  match paths with
  | [ a; b ] -> Alcotest.(check bool) "distinct" false (Path.equal a b)
  | _ -> Alcotest.fail "expected two"

let test_yen_ordering () =
  (* ladder where longer alternatives exist *)
  let g =
    Graph.of_edges 6 [ (0, 1); (1, 2); (0, 3); (3, 4); (4, 2); (1, 4); (3, 1) ]
  in
  let paths = Yen.k_shortest g ~k:5 0 2 in
  let costs = List.map Path.hops paths in
  let sorted = List.sort Int.compare costs in
  Alcotest.(check (list int)) "non-decreasing" sorted costs;
  Alcotest.(check bool) "first is shortest" true (List.hd costs = 2)

let test_yen_all_simple () =
  let g = Builders.grid 3 3 in
  let paths = Yen.k_shortest g ~k:10 0 8 in
  Alcotest.(check bool) "got several" true (List.length paths >= 5);
  List.iter
    (fun p ->
      Alcotest.(check bool) "simple" true (Path.is_simple p);
      Alcotest.(check int) "src" 0 (Path.src p);
      Alcotest.(check int) "dst" 8 (Path.dst p))
    paths

let test_yen_unreachable () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  Alcotest.(check int) "no paths" 0 (List.length (Yen.k_shortest g ~k:4 0 2))

let test_yen_k_one () =
  let g = diamond () in
  match Yen.k_shortest g ~k:1 0 3 with
  | [ p ] -> Alcotest.(check int) "is shortest" 2 (Path.hops p)
  | _ -> Alcotest.fail "expected exactly one"

let test_k_disjoint () =
  let g = diamond () in
  let paths = Yen.k_disjoint g ~k:3 0 3 in
  Alcotest.(check int) "two disjoint routes" 2 (List.length paths);
  match paths with
  | [ a; b ] ->
    List.iter
      (fun (l : Link.t) ->
        Alcotest.(check bool) "link-disjoint" false (Path.mem_link b l))
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
  let g = Builders.grid 2 4 in
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
  let g = Graph.of_edges 3 [ (0, 1) ] in
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
    let g = Builders.erdos_renyi ~seed:(Int64.of_int seed) ~p n in
    if Graph.is_connected g || p > 0.95 then g else go (p +. 0.1)
  in
  go 0.2

let prop_triangle_inequality =
  QCheck.Test.make ~name:"hop distances obey triangle inequality" ~count:60
    graph_gen (fun (n, seed) ->
      let g = connected_er (n, seed) in
      let m = Dijkstra.all_pairs_hops g in
      let nc = Graph.node_count g in
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

let prop_yen_sorted_distinct =
  QCheck.Test.make ~name:"yen paths sorted and distinct" ~count:40 graph_gen
    (fun (n, seed) ->
      let g = connected_er (n, seed) in
      let paths = Yen.k_shortest g ~k:6 0 (Graph.node_count g - 1) in
      let hops = List.map Path.hops paths in
      let sorted = List.sort Int.compare hops in
      let node_lists = List.map (fun p -> p.Path.nodes) paths in
      let distinct =
        List.length node_lists
        = List.length (List.sort_uniq compare node_lists)
      in
      hops = sorted && distinct)

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
      let dist = (Dijkstra.all_pairs_hops g).(s) in
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
        Path.src p = s && Path.dst p = d && Path.hops p = dist.(d)
        && contiguous p.Path.links
      in
      List.length all = k
      && List.length capped = min limit k
      && List.for_all valid all
      && rising (List.map positions all)
      && List.map positions capped = prefix limit (List.map positions all))

let prop_dijkstra_is_minimal =
  QCheck.Test.make ~name:"dijkstra beats any yen alternative" ~count:40
    graph_gen (fun (n, seed) ->
      let g = connected_er (n, seed) in
      let d = Graph.node_count g - 1 in
      match Dijkstra.shortest_path g 0 d with
      | None -> true
      | Some sp ->
        List.for_all
          (fun p -> Path.hops p >= Path.hops sp)
          (Yen.k_shortest g ~k:4 0 d))

(* early exit: random graph with whole-unit link delays of 1-9, random
   pruning (a salted hash picks about one link in five and one node in
   eight), every target from node 0, under both metrics *)
let pruned_gen =
  QCheck.make
    QCheck.Gen.(
      quad (int_range 4 30) (int_range 0 10_000) (int_range 0 1_000) bool)

let weighted_er (n, seed) =
  let base = connected_er (n, seed) in
  let b = Graph.Builder.create () in
  for i = 0 to Graph.node_count base - 1 do
    ignore (Graph.Builder.add_node b (string_of_int i))
  done;
  List.iter
    (fun (l : Link.t) ->
      let delay = float_of_int (1 + (Hashtbl.hash (l.Link.id, seed) mod 9)) in
      Graph.Builder.add_edge b ~delay l.Link.src l.Link.dst)
    (Graph.undirected_links base);
  Graph.Builder.build b

let pruning salt =
  let pick x m = Hashtbl.hash (x, salt) mod m = 0 in
  ((fun (l : Link.t) -> pick l.Link.id 5), fun v -> pick (v + 100_000) 8)

(* path length under the metric; Path.delay sums from the source, the
   order the search accumulates in, so the floats compare exactly *)
let length metric p =
  match metric with
  | Dijkstra.Hops -> float_of_int (Path.hops p)
  | Dijkstra.Delay -> Path.delay p

let link_ids = function
  | None -> None
  | Some p -> Some (List.map (fun (l : Link.t) -> l.Link.id) p.Path.links)

let prop_target_exit_exact =
  QCheck.Test.make ~name:"dijkstra ~target gives the full run's path"
    ~count:80 pruned_gen (fun (n, seed, salt, by_delay) ->
      let g = weighted_er (n, seed) in
      let metric = if by_delay then Dijkstra.Delay else Dijkstra.Hops in
      let forbidden_links, forbidden_nodes = pruning salt in
      let full = Dijkstra.run ~metric ~forbidden_links ~forbidden_nodes g 0 in
      List.for_all
        (fun t ->
          let early =
            Dijkstra.run ~metric ~forbidden_links ~forbidden_nodes ~target:t g 0
          in
          link_ids (Dijkstra.path_to early t) = link_ids (Dijkstra.path_to full t))
        (List.init (Graph.node_count g) Fun.id))

let prop_bound_exit_exact =
  QCheck.Test.make
    ~name:"dijkstra ~bound is exact within the bound, longer or absent past it"
    ~count:80 pruned_gen (fun (n, seed, salt, by_delay) ->
      let g = weighted_er (n, seed) in
      let metric = if by_delay then Dijkstra.Delay else Dijkstra.Hops in
      let forbidden_links, forbidden_nodes = pruning salt in
      let full = Dijkstra.run ~metric ~forbidden_links ~forbidden_nodes g 0 in
      let span = if by_delay then 30 else 5 in
      List.for_all
        (fun t ->
          let bound = float_of_int (((7 * t) + salt) mod span) in
          let want = Dijkstra.path_to full t in
          List.for_all
            (fun target ->
              let got =
                Dijkstra.path_to
                  (Dijkstra.run ~metric ~forbidden_links ~forbidden_nodes
                     ?target ~bound g 0)
                  t
              in
              match want with
              | Some p when length metric p <= bound ->
                link_ids got = link_ids want
              | Some _ | None -> (
                match got with
                | None -> true
                | Some q -> length metric q > bound))
            [ None; Some t ])
        (List.init (Graph.node_count g) Fun.id))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing"
    [
      ( "dijkstra",
        [
          Alcotest.test_case "hop tree" `Quick test_hops_tree;
          Alcotest.test_case "metric choice" `Quick test_metric_choice;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "forbidden links" `Quick test_forbidden_links;
          Alcotest.test_case "forbidden nodes" `Quick test_forbidden_nodes;
          Alcotest.test_case "reconstruction validity" `Quick test_path_reconstruction_valid;
          Alcotest.test_case "all pairs" `Quick test_all_pairs_matches_bfs;
          Alcotest.test_case "eccentricity" `Quick test_eccentricity;
          Alcotest.test_case "next hops" `Quick test_next_hops;
        ] );
      ( "yen",
        [
          Alcotest.test_case "basic" `Quick test_yen_basic;
          Alcotest.test_case "ordering" `Quick test_yen_ordering;
          Alcotest.test_case "all simple" `Quick test_yen_all_simple;
          Alcotest.test_case "unreachable" `Quick test_yen_unreachable;
          Alcotest.test_case "k=1" `Quick test_yen_k_one;
          Alcotest.test_case "disjoint" `Quick test_k_disjoint;
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
            prop_yen_sorted_distinct;
            prop_ecmp_paths_equal_cost;
            prop_ecmp_dag_count_and_order;
            prop_dijkstra_is_minimal;
            prop_target_exit_exact;
            prop_bound_exit_exact;
          ] );
    ]
