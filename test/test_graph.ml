(* Tests for graph construction, paths, serialisation and structural
   statistics. *)

open Topology

let diamond () =
  (* 0 - 1 - 3 with 0 - 2 - 3 alternative *)
  Graph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ]

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_counts () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 4 (Graph.node_count g);
  Alcotest.(check int) "directed links" 8 (Graph.link_count g);
  Alcotest.(check int) "undirected links" 4
    (List.length (Graph.undirected_links g))

let test_adjacency () =
  let g = diamond () in
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (Graph.succs g 0);
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (Graph.preds g 3);
  Alcotest.(check int) "out degree" 2 (Graph.out_degree g 0)

let test_find_and_reverse () =
  let g = diamond () in
  match Graph.find_link g 0 1 with
  | None -> Alcotest.fail "missing link 0->1"
  | Some l ->
    Alcotest.(check (pair int int)) "endpoints" (0, 1) (Link.endpoints l);
    (match Graph.reverse g l with
    | None -> Alcotest.fail "missing reverse"
    | Some r -> Alcotest.(check (pair int int)) "reverse" (1, 0) (Link.endpoints r));
    Alcotest.(check bool) "absent link" true (Graph.find_link g 0 3 = None)

let test_duplicate_rejected () =
  let b = Graph.Builder.create () in
  let u = Graph.Builder.add_node b "u" in
  let v = Graph.Builder.add_node b "v" in
  Graph.Builder.add_link b u v;
  Graph.Builder.add_link b u v;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.Builder.build: duplicate link 0->1") (fun () ->
      ignore (Graph.Builder.build b))

let test_invalid_links_rejected () =
  let b = Graph.Builder.create () in
  let u = Graph.Builder.add_node b "u" in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.Builder.add_link: self-loop") (fun () ->
      Graph.Builder.add_link b u u);
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Graph.Builder: unknown node 7") (fun () ->
      Graph.Builder.add_link b u 7);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Graph.Builder.add_link: capacity <= 0") (fun () ->
      let v = Graph.Builder.add_node b "v" in
      Graph.Builder.add_link b ~capacity:0. u v)

let test_connectivity () =
  Alcotest.(check bool) "diamond connected" true (Graph.is_connected (diamond ()));
  let disconnected = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "two components" false (Graph.is_connected disconnected);
  let empty = Graph.of_edges 0 [] in
  Alcotest.(check bool) "empty is connected" true (Graph.is_connected empty)

let test_total_capacity () =
  let g = Graph.of_edges ~capacity:5. 2 [ (0, 1) ] in
  Alcotest.(check (float 1e-9)) "both directions" 10. (Graph.total_capacity g)

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_of_nodes () =
  let g = diamond () in
  let p = Path.of_nodes_exn g [ 0; 1; 3 ] in
  Alcotest.(check int) "hops" 2 (Path.hops p);
  Alcotest.(check int) "src" 0 (Path.src p);
  Alcotest.(check int) "dst" 3 (Path.dst p);
  Alcotest.(check bool) "simple" true (Path.is_simple p);
  match Path.of_nodes g [ 0; 3 ] with
  | Ok _ -> Alcotest.fail "0-3 not linked"
  | Error _ -> ()

let test_path_singleton () =
  let p = Path.singleton 2 in
  Alcotest.(check int) "no hops" 0 (Path.hops p);
  Alcotest.(check (float 0.)) "zero delay" 0. (Path.delay p);
  Alcotest.(check bool) "infinite bottleneck" true
    (Path.bottleneck p = infinity)

let test_path_costs () =
  let g = Graph.of_edges ~capacity:10. ~delay:0.5 4 [ (0, 1); (1, 2); (2, 3) ] in
  let p = Path.of_nodes_exn g [ 0; 1; 2; 3 ] in
  Alcotest.(check (float 1e-9)) "delay" 1.5 (Path.delay p);
  Alcotest.(check (float 1e-9)) "bottleneck" 10. (Path.bottleneck p);
  Alcotest.(check (float 1e-9)) "stretch vs 2" 1.5 (Path.stretch ~shortest:2 p)

let test_path_concat () =
  let g = diamond () in
  let a = Path.of_nodes_exn g [ 0; 1 ] in
  let b = Path.of_nodes_exn g [ 1; 3 ] in
  (match Path.concat a b with
  | Ok p -> Alcotest.(check int) "joined" 2 (Path.hops p)
  | Error m -> Alcotest.fail m);
  match Path.concat b a with
  | Ok _ -> Alcotest.fail "mismatched endpoints accepted"
  | Error _ -> ()

let test_path_splice () =
  let g = diamond () in
  let p = Path.of_nodes_exn g [ 0; 1; 3 ] in
  let detour = Path.of_nodes_exn g [ 0; 2; 3 ] in
  match Path.splice p ~at:0 ~replacement:detour ~rejoin:3 with
  | Error m -> Alcotest.fail m
  | Ok spliced ->
    Alcotest.(check (list int)) "rerouted" [ 0; 2; 3 ] spliced.Path.nodes

let test_path_splice_middle () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (1, 3) ] in
  let p = Path.of_nodes_exn g [ 0; 1; 2; 3; 4 ] in
  let shortcut = Path.of_nodes_exn g [ 1; 3 ] in
  match Path.splice p ~at:1 ~replacement:shortcut ~rejoin:3 with
  | Error m -> Alcotest.fail m
  | Ok spliced ->
    Alcotest.(check (list int)) "middle replaced" [ 0; 1; 3; 4 ] spliced.Path.nodes;
    Alcotest.(check int) "links follow" 3 (List.length spliced.Path.links)

let test_path_splice_errors () =
  let g = diamond () in
  let p = Path.of_nodes_exn g [ 0; 1; 3 ] in
  let detour = Path.of_nodes_exn g [ 0; 2; 3 ] in
  (match Path.splice p ~at:2 ~replacement:detour ~rejoin:3 with
  | Ok _ -> Alcotest.fail "at-node not on path accepted"
  | Error _ -> ());
  (match Path.splice p ~at:3 ~replacement:detour ~rejoin:0 with
  | Ok _ -> Alcotest.fail "rejoin before at accepted"
  | Error _ -> ());
  match Path.splice p ~at:1 ~replacement:detour ~rejoin:3 with
  | Ok _ -> Alcotest.fail "mismatched replacement endpoints accepted"
  | Error _ -> ()

let test_graph_folds () =
  let g = diamond () in
  let link_sum = Graph.fold_links (fun _ acc -> acc + 1) g 0 in
  Alcotest.(check int) "fold_links" 8 link_sum;
  let node_sum = Graph.fold_nodes (fun _ acc -> acc + 1) g 0 in
  Alcotest.(check int) "fold_nodes" 4 node_sum;
  let seen = ref 0 in
  Graph.iter_links (fun _ -> incr seen) g;
  Alcotest.(check int) "iter_links" 8 !seen

let test_path_mem () =
  let g = diamond () in
  let p = Path.of_nodes_exn g [ 0; 1; 3 ] in
  Alcotest.(check bool) "mem node" true (Path.mem_node p 1);
  Alcotest.(check bool) "not mem node" false (Path.mem_node p 2);
  let l = Option.get (Graph.find_link g 0 1) in
  let l' = Option.get (Graph.find_link g 0 2) in
  Alcotest.(check bool) "mem link" true (Path.mem_link p l);
  Alcotest.(check bool) "not mem link" false (Path.mem_link p l')

(* ------------------------------------------------------------------ *)
(* Serial *)

let test_serial_roundtrip () =
  let g = Builders.fig3 () in
  let text = Serial.to_string g in
  match Serial.of_string text with
  | Error m -> Alcotest.fail m
  | Ok g' ->
    Alcotest.(check int) "nodes" (Graph.node_count g) (Graph.node_count g');
    Alcotest.(check int) "links" (Graph.link_count g) (Graph.link_count g');
    List.iter
      (fun (l : Link.t) ->
        match Graph.find_link g' l.Link.src l.Link.dst with
        | None -> Alcotest.fail "link lost in roundtrip"
        | Some l' ->
          Alcotest.(check (float 0.)) "capacity" l.Link.capacity l'.Link.capacity;
          Alcotest.(check (float 0.)) "delay" l.Link.delay l'.Link.delay)
      (Graph.links g)

let test_serial_roles_roundtrip () =
  let b = Graph.Builder.create () in
  let c = Graph.Builder.add_node b ~role:Node.Core "c" in
  let h = Graph.Builder.add_node b ~role:Node.Host "h" in
  Graph.Builder.add_edge b c h;
  let g = Graph.Builder.build b in
  match Serial.of_string (Serial.to_string g) with
  | Error m -> Alcotest.fail m
  | Ok g' ->
    Alcotest.(check string) "role kept" "host"
      (Node.role_to_string (Graph.node g' 1).Node.role)

let test_serial_errors () =
  let check_err text =
    match Serial.of_string text with
    | Ok _ -> Alcotest.fail ("accepted bad input: " ^ text)
    | Error _ -> ()
  in
  check_err "frobnicate 1 2\n";
  check_err "node 5 foo core\n";
  check_err "node 0 foo king\n";
  check_err "node 0 a core\nedge 0 7 1e9 0.001\n";
  check_err "node 0 a core\nnode 1 b core\nedge 0 1 bad 0.001\n"

let test_serial_file_roundtrip () =
  let g = Isp_zoo.graph Isp_zoo.Vsnl in
  let path = Filename.temp_file "inrpp_topo" ".topo" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save g path;
      match Serial.load path with
      | Error m -> Alcotest.fail m
      | Ok g' ->
        Alcotest.(check int) "nodes" (Graph.node_count g) (Graph.node_count g');
        Alcotest.(check int) "links" (Graph.link_count g) (Graph.link_count g'));
  Alcotest.(check bool) "missing file errors" true
    (match Serial.load "/nonexistent/inrpp.topo" with
    | Error _ -> true
    | Ok _ -> false)

let test_serial_comments_and_blanks () =
  let text = "# heading\n\nnode 0 a core\nnode 1 b core # trailing\nedge 0 1 1e9 0.001\n" in
  match Serial.of_string text with
  | Error m -> Alcotest.fail m
  | Ok g -> Alcotest.(check int) "parsed" 2 (Graph.node_count g)

(* ------------------------------------------------------------------ *)
(* Builders + stats *)

let test_builder_shapes () =
  let check_shape name g nodes ulinks =
    Alcotest.(check int) (name ^ " nodes") nodes (Graph.node_count g);
    Alcotest.(check int) (name ^ " links") ulinks
      (List.length (Graph.undirected_links g));
    Alcotest.(check bool) (name ^ " connected") true (Graph.is_connected g)
  in
  check_shape "line" (Builders.line 5) 5 4;
  check_shape "ring" (Builders.ring 6) 6 6;
  check_shape "star" (Builders.star 4) 5 4;
  check_shape "mesh" (Builders.full_mesh 5) 5 10;
  check_shape "grid" (Builders.grid 3 4) 12 17;
  check_shape "tree" (Builders.binary_tree 3) 15 14;
  check_shape "dumbbell" (Builders.dumbbell 3) 8 7;
  check_shape "fig3" (Builders.fig3 ()) 4 5

let test_builder_validation () =
  let expect_invalid f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Builders.line 0);
  expect_invalid (fun () -> Builders.ring 2);
  expect_invalid (fun () -> Builders.full_mesh 1);
  expect_invalid (fun () -> Builders.binary_tree (-1));
  expect_invalid (fun () -> Builders.erdos_renyi ~seed:1L ~p:1.5 4)

let test_random_builders_deterministic () =
  let a = Builders.erdos_renyi ~seed:5L ~p:0.3 30 in
  let b = Builders.erdos_renyi ~seed:5L ~p:0.3 30 in
  Alcotest.(check int) "same link count" (Graph.link_count a) (Graph.link_count b);
  let wa = Builders.waxman ~seed:5L ~alpha:0.9 ~beta:0.3 30 in
  let wb = Builders.waxman ~seed:5L ~alpha:0.9 ~beta:0.3 30 in
  Alcotest.(check int) "waxman deterministic" (Graph.link_count wa)
    (Graph.link_count wb)

let test_graph_stats_mesh () =
  let g = Builders.full_mesh 5 in
  let s = Graph_stats.compute g in
  Alcotest.(check (float 1e-9)) "avg degree" 4. s.Graph_stats.avg_degree;
  Alcotest.(check (option int)) "diameter" (Some 1) s.Graph_stats.diameter;
  Alcotest.(check (float 1e-9)) "clustering" 1. s.Graph_stats.clustering;
  Alcotest.(check (float 1e-9)) "avg path" 1. s.Graph_stats.avg_path_length

let test_betweenness_line () =
  (* on a 3-node line all 0<->2 shortest paths pass through node 1 *)
  let g = Builders.line 3 in
  let cb = Graph_stats.betweenness g in
  Alcotest.(check (float 1e-9)) "ends" 0. cb.(0);
  Alcotest.(check (float 1e-9)) "ends" 0. cb.(2);
  (* node 1 lies on 0->2 and 2->0 *)
  Alcotest.(check (float 1e-9)) "middle" 2. cb.(1)

let test_betweenness_star () =
  let g = Builders.star 4 in
  let cb = Graph_stats.betweenness g in
  (* hub carries all 4*3 leaf pairs *)
  Alcotest.(check (float 1e-9)) "hub" 12. cb.(0);
  for leaf = 1 to 4 do
    Alcotest.(check (float 1e-9)) "leaf" 0. cb.(leaf)
  done

let test_betweenness_mesh_zero () =
  let g = Builders.full_mesh 4 in
  let cb = Graph_stats.betweenness g in
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "no transit" 0. v) cb

let test_graph_stats_line () =
  let g = Builders.line 4 in
  let s = Graph_stats.compute g in
  Alcotest.(check (option int)) "diameter" (Some 3) s.Graph_stats.diameter;
  Alcotest.(check (float 1e-9)) "clustering" 0. s.Graph_stats.clustering;
  let dist = Graph_stats.degree_distribution g in
  Alcotest.(check (list (pair int int))) "degree dist" [ (1, 2); (2, 2) ] dist

(* ------------------------------------------------------------------ *)
(* Properties *)

let random_graph_gen =
  QCheck.Gen.(
    pair (int_range 2 40) (int_range 0 1000) >>= fun (n, seed) ->
    return (n, seed))

let prop_of_edges_symmetric =
  QCheck.Test.make ~name:"of_edges graphs are symmetric" ~count:100
    (QCheck.make random_graph_gen) (fun (n, seed) ->
      let g =
        Builders.erdos_renyi ~seed:(Int64.of_int seed) ~p:0.4 n
      in
      List.for_all
        (fun (l : Link.t) -> Graph.reverse g l <> None)
        (Graph.links g))

let prop_undirected_halves =
  QCheck.Test.make ~name:"undirected_links is half of links" ~count:100
    (QCheck.make random_graph_gen) (fun (n, seed) ->
      let g = Builders.erdos_renyi ~seed:(Int64.of_int seed) ~p:0.4 n in
      2 * List.length (Graph.undirected_links g) = Graph.link_count g)

let prop_serial_roundtrip =
  QCheck.Test.make ~name:"serial roundtrip preserves structure" ~count:50
    (QCheck.make random_graph_gen) (fun (n, seed) ->
      let g = Builders.erdos_renyi ~seed:(Int64.of_int seed) ~p:0.3 n in
      match Serial.of_string (Serial.to_string g) with
      | Error _ -> false
      | Ok g' ->
        Graph.node_count g = Graph.node_count g'
        && Graph.link_count g = Graph.link_count g')

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "adjacency" `Quick test_adjacency;
          Alcotest.test_case "find and reverse" `Quick test_find_and_reverse;
          Alcotest.test_case "duplicate rejected" `Quick test_duplicate_rejected;
          Alcotest.test_case "invalid links rejected" `Quick test_invalid_links_rejected;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "total capacity" `Quick test_total_capacity;
        ] );
      ( "path",
        [
          Alcotest.test_case "of_nodes" `Quick test_path_of_nodes;
          Alcotest.test_case "singleton" `Quick test_path_singleton;
          Alcotest.test_case "costs" `Quick test_path_costs;
          Alcotest.test_case "concat" `Quick test_path_concat;
          Alcotest.test_case "splice ends" `Quick test_path_splice;
          Alcotest.test_case "splice middle" `Quick test_path_splice_middle;
          Alcotest.test_case "membership" `Quick test_path_mem;
          Alcotest.test_case "splice errors" `Quick test_path_splice_errors;
          Alcotest.test_case "folds" `Quick test_graph_folds;
        ] );
      ( "serial",
        [
          Alcotest.test_case "roundtrip fig3" `Quick test_serial_roundtrip;
          Alcotest.test_case "roles roundtrip" `Quick test_serial_roles_roundtrip;
          Alcotest.test_case "errors" `Quick test_serial_errors;
          Alcotest.test_case "comments and blanks" `Quick test_serial_comments_and_blanks;
          Alcotest.test_case "file roundtrip" `Quick test_serial_file_roundtrip;
        ] );
      ( "builders",
        [
          Alcotest.test_case "shapes" `Quick test_builder_shapes;
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "random deterministic" `Quick test_random_builders_deterministic;
          Alcotest.test_case "stats mesh" `Quick test_graph_stats_mesh;
          Alcotest.test_case "stats line" `Quick test_graph_stats_line;
          Alcotest.test_case "betweenness line" `Quick test_betweenness_line;
          Alcotest.test_case "betweenness star" `Quick test_betweenness_star;
          Alcotest.test_case "betweenness mesh" `Quick test_betweenness_mesh_zero;
        ] );
      ( "properties",
        qc [ prop_of_edges_symmetric; prop_undirected_halves; prop_serial_roundtrip ] );
    ]
