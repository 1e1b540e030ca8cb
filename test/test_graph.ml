(* Tests for graph construction, paths and the topology builders. *)

open Topology
open Support

(* a path's last node *)
let path_dst (p : Path.t) = List.nth p.Path.nodes (Path.hops p)

let diamond () =
  (* 0 - 1 - 3 with 0 - 2 - 3 alternative *)
  Fixtures.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3) ]

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
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ]
    (List.map (fun (l : Link.t) -> l.Link.dst) (Graph.out_links g 0));
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ]
    (List.map (fun (l : Link.t) -> l.Link.src) (Graph.in_links g 3));
  Alcotest.(check int) "out degree" 2 (Graph.out_degree g 0)

let test_find_and_reverse () =
  let g = diamond () in
  match Graph.find_link g 0 1 with
  | None -> Alcotest.fail "missing link 0->1"
  | Some l ->
    Alcotest.(check (pair int int)) "endpoints" (0, 1) (l.Link.src, l.Link.dst);
    (match Graph.reverse g l with
    | None -> Alcotest.fail "missing reverse"
    | Some r -> Alcotest.(check (pair int int)) "reverse" (1, 0) (r.Link.src, r.Link.dst));
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

(* [n] nodes and the one-way links [pairs], in order *)
let directed n pairs =
  let b = Graph.Builder.create () in
  for i = 0 to n - 1 do
    ignore (Graph.Builder.add_node b (Printf.sprintf "n%d" i))
  done;
  List.iter (fun (u, v) -> Graph.Builder.add_link b u v) pairs;
  Graph.Builder.build b

let test_connectivity () =
  let strong = Graph.is_strongly_connected in
  Alcotest.(check bool) "diamond connected" true (strong (diamond ()));
  let disconnected = Fixtures.of_edges 4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "two components" false (strong disconnected);
  let empty = Fixtures.of_edges 0 [] in
  Alcotest.(check bool) "empty is connected" true (strong empty);
  let ring = [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check bool) "one-way ring" true (strong (directed 4 ring));
  (* node 0 still reaches every node, but none reaches it back *)
  Alcotest.(check bool) "one-way line" false
    (strong (directed 4 (List.filter (fun l -> l <> (3, 0)) ring)));
  Alcotest.(check bool) "ring with a one-way spur" false
    (strong (directed 5 ((0, 4) :: ring)))

let test_total_capacity () =
  let g = Fixtures.of_edges ~capacity:5. 2 [ (0, 1) ] in
  Alcotest.(check (float 1e-9)) "both directions" 10. (Graph.total_capacity g)

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_of_links () =
  let g = diamond () in
  let link a b = Option.get (Graph.find_link g a b) in
  (match Path.of_links [ link 0 1; link 1 3 ] with
  | Error m -> Alcotest.fail m
  | Ok p ->
    Alcotest.(check int) "hops" 2 (Path.hops p);
    Alcotest.(check int) "src" 0 (Path.src p);
    Alcotest.(check int) "dst" 3 (path_dst p);
    Alcotest.(check (list int)) "nodes" [ 0; 1; 3 ] p.Path.nodes);
  (match Path.of_links [ link 0 1; link 2 3 ] with
  | Ok _ -> Alcotest.fail "broken chain accepted"
  | Error _ -> ());
  match Path.of_links [] with
  | Ok _ -> Alcotest.fail "empty chain accepted"
  | Error _ -> ()

let test_path_singleton () =
  let p = Path.singleton 2 in
  Alcotest.(check int) "no hops" 0 (Path.hops p);
  Alcotest.(check int) "src" 2 (Path.src p);
  Alcotest.(check int) "dst" 2 (path_dst p)

let test_graph_folds () =
  let g = diamond () in
  Alcotest.(check int) "links" 8 (List.length (Graph.links g));
  Alcotest.(check int) "nodes" 4 (List.length (Graph.nodes g))

(* ------------------------------------------------------------------ *)
(* Builders *)

let test_builder_shapes () =
  let check_shape name g nodes ulinks =
    Alcotest.(check int) (name ^ " nodes") nodes (Graph.node_count g);
    Alcotest.(check int) (name ^ " links") ulinks
      (List.length (Graph.undirected_links g));
    Alcotest.(check bool) (name ^ " connected") true
      (Graph.is_strongly_connected g)
  in
  check_shape "line" (Builders.line 5) 5 4;
  check_shape "ring" (Fixtures.ring 6) 6 6;
  check_shape "star" (Fixtures.star 4) 5 4;
  check_shape "mesh" (Fixtures.full_mesh 5) 5 10;
  check_shape "grid" (Fixtures.grid 3 4) 12 17;
  check_shape "tree" (Fixtures.binary_tree 3) 15 14;
  check_shape "dumbbell" (Builders.dumbbell 3) 8 7;
  check_shape "fig3" (Builders.fig3 ()) 4 5

let test_builder_validation () =
  let expect_invalid f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Builders.line 0);
  expect_invalid (fun () -> Fixtures.ring 2);
  expect_invalid (fun () -> Fixtures.full_mesh 1);
  expect_invalid (fun () -> Fixtures.binary_tree (-1));
  expect_invalid (fun () -> Fixtures.erdos_renyi ~seed:1L ~p:1.5 4)

let test_random_builders_deterministic () =
  let a = Fixtures.erdos_renyi ~seed:5L ~p:0.3 30 in
  let b = Fixtures.erdos_renyi ~seed:5L ~p:0.3 30 in
  Alcotest.(check int) "same link count" (Graph.link_count a) (Graph.link_count b)

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
        Fixtures.erdos_renyi ~seed:(Int64.of_int seed) ~p:0.4 n
      in
      List.for_all
        (fun (l : Link.t) -> Graph.reverse g l <> None)
        (Graph.links g))

let prop_undirected_halves =
  QCheck.Test.make ~name:"undirected_links is half of links" ~count:100
    (QCheck.make random_graph_gen) (fun (n, seed) ->
      let g = Fixtures.erdos_renyi ~seed:(Int64.of_int seed) ~p:0.4 n in
      2 * List.length (Graph.undirected_links g) = Graph.link_count g)

(* Random graphs with one-way links: [n] nodes and the directed pairs
   drawn, self-loops dropped; [dups] keeps repeated pairs *)
let directed_gen =
  QCheck.make
    ~print:(fun (n, pairs) ->
      Printf.sprintf "%d nodes: %s" n
        (String.concat " "
           (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) pairs)))
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      list_size (int_range 0 60) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun pairs -> return (n, List.filter (fun (u, v) -> u <> v) pairs))

let dedup pairs =
  List.rev
    (List.fold_left
       (fun acc p -> if List.mem p acc then acc else p :: acc)
       [] pairs)

let prop_find_link_scans =
  QCheck.Test.make ~name:"find_link agrees with a scan of links" ~count:300
    directed_gen (fun (n, pairs) ->
      let g = directed n (dedup pairs) in
      let ids = function
        | None -> -1
        | Some (l : Link.t) -> l.Link.id
      in
      let scan u v =
        List.find_opt
          (fun (l : Link.t) -> l.Link.src = u && l.Link.dst = v)
          (Graph.links g)
      in
      let range = List.init (n + 4) (fun i -> i - 2) in
      List.for_all
        (fun u ->
          List.for_all
            (fun v -> ids (Graph.find_link g u v) = ids (scan u v))
            range)
        range)

(* [out_links] is the links out of [u] in id order, as it was before
   the rows; the rows list the same links and heads in the same order *)
let prop_rows_follow_out_links =
  QCheck.Test.make ~name:"rows list out_links in order" ~count:300
    directed_gen (fun (n, pairs) ->
      let g = directed n (dedup pairs) in
      let rows = Graph.rows g in
      List.for_all
        (fun u ->
          let out = Graph.out_links g u in
          let row =
            List.init (Graph.out_degree g u) (fun k -> rows.Graph.first.(u) + k)
          in
          out = List.filter (fun (l : Link.t) -> l.Link.src = u) (Graph.links g)
          && rows.Graph.first.(u + 1) - rows.Graph.first.(u) = List.length out
          && List.map (fun i -> rows.Graph.link.(i)) row
             = List.map (fun (l : Link.t) -> l.Link.id) out
          && List.map (fun i -> rows.Graph.head.(i)) row
             = List.map (fun (l : Link.t) -> l.Link.dst) out)
        (List.init n Fun.id))

(* the message names the first link, in insertion order, that repeats
   an earlier one *)
let prop_duplicate_message =
  QCheck.Test.make ~name:"the first duplicate is the one reported" ~count:300
    directed_gen (fun (n, pairs) ->
      let rec first_repeat seen = function
        | [] -> None
        | p :: rest ->
          if List.mem p seen then Some p else first_repeat (p :: seen) rest
      in
      let expected = first_repeat [] pairs in
      match directed n pairs with
      | _ -> expected = None
      | exception Invalid_argument msg -> (
        match expected with
        | Some (u, v) ->
          msg = Printf.sprintf "Graph.Builder.build: duplicate link %d->%d" u v
        | None -> false))

(* strong connectivity against reachability from every node *)
let prop_strongly_connected =
  QCheck.Test.make ~name:"strong connectivity is all-pairs reachability"
    ~count:300 directed_gen (fun (n, pairs) ->
      let g = directed n (dedup pairs) in
      let all_reach =
        List.for_all
          (fun s ->
            let t = Dijkstra.run g s in
            List.for_all (Dijkstra.reachable t) (List.init n Fun.id))
          (List.init n Fun.id)
      in
      Graph.is_strongly_connected g = all_reach)

(* ------------------------------------------------------------------ *)
(* Allocation gate: generating the ISP zoo builds nine graphs, rows
   included; a shortest-path tree on EBONE allocates its arrays and
   heap, and no float per relaxed link *)

let check_minor_words label ~frozen f =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* minor-word counts differ *)
  | Sys.Native ->
    let before = Gc.minor_words () in
    f ();
    let words = Gc.minor_words () -. before in
    if words > 1.25 *. frozen then
      Alcotest.failf "%s: %g minor words, frozen %g, bound %g" label words
        frozen (1.25 *. frozen)

let test_gate_zoo_generate () =
  check_minor_words "generating the nine ISP graphs" ~frozen:201315.
    (fun () ->
      List.iter
        (fun isp ->
          ignore (Sys.opaque_identity (Isp_zoo.generate (Isp_zoo.spec isp))))
        Isp_zoo.all)

let test_gate_ebone_dijkstra () =
  let g = Isp_zoo.graph Isp_zoo.Ebone in
  check_minor_words "one EBONE shortest-path tree" ~frozen:628. (fun () ->
      ignore (Sys.opaque_identity (Dijkstra.run g 0)))

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
          Alcotest.test_case "of_links" `Quick test_path_of_links;
          Alcotest.test_case "singleton" `Quick test_path_singleton;
          Alcotest.test_case "folds" `Quick test_graph_folds;
        ] );
      ( "builders",
        [
          Alcotest.test_case "shapes" `Quick test_builder_shapes;
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "random deterministic" `Quick test_random_builders_deterministic;
        ] );
      ( "properties",
        qc
          [
            prop_of_edges_symmetric;
            prop_undirected_halves;
            prop_find_link_scans;
            prop_rows_follow_out_links;
            prop_duplicate_message;
            prop_strongly_connected;
          ] );
      ( "graph gate",
        [
          Alcotest.test_case "isp zoo generation" `Quick test_gate_zoo_generate;
          Alcotest.test_case "ebone dijkstra" `Quick test_gate_ebone_dijkstra;
        ] );
    ]
