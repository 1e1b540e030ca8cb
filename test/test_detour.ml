(* Tests for detour discovery/classification and the synthetic ISP zoo
   — the machinery behind the paper's Table 1. *)

open Topology
open Support

(* a path's last node *)
let path_dst (p : Path.t) = List.nth p.Path.nodes (Path.hops p)

(* ------------------------------------------------------------------ *)
(* classify_link on known motifs *)

let test_triangle_one_hop () =
  let g = Fixtures.ring 3 in
  List.iter
    (fun l ->
      match Detour.classify_link g l with
      | Detour.Detour 1 -> ()
      | Detour.Detour n -> Alcotest.failf "triangle link classed %d" n
      | Detour.Unavailable -> Alcotest.fail "triangle link has a detour")
    (Graph.undirected_links g)

let test_square_two_hop () =
  let g = Fixtures.ring 4 in
  List.iter
    (fun l ->
      match Detour.classify_link g l with
      | Detour.Detour 2 -> ()
      | _ -> Alcotest.fail "square links are 2-hop detours")
    (Graph.undirected_links g)

let test_pentagon_three_plus () =
  let g = Fixtures.ring 5 in
  List.iter
    (fun l ->
      match Detour.classify_link g l with
      | Detour.Detour 3 -> ()
      | _ -> Alcotest.fail "pentagon links are 3-hop detours")
    (Graph.undirected_links g)

let test_bridge_unavailable () =
  let g = Builders.line 3 in
  List.iter
    (fun l ->
      Alcotest.(check bool) "bridges have no detour" true
        (Detour.classify_link g l = Detour.Unavailable))
    (Graph.undirected_links g)

let test_mesh_all_one_hop () =
  let g = Fixtures.full_mesh 6 in
  let p = Detour.classify_links g in
  Alcotest.(check (float 1e-9)) "all 1-hop" 1. p.Detour.one_hop;
  Alcotest.(check int) "link count" 15 p.Detour.total_links

let test_best_detour_path () =
  let g = Fixtures.ring 4 in
  let l = Option.get (Graph.find_link g 0 1) in
  match Oracles.best_detour g l with
  | None -> Alcotest.fail "ring has detours"
  | Some p ->
    Alcotest.(check (list int)) "goes the long way" [ 0; 3; 2; 1 ] p.Path.nodes

let test_best_detour_ignores_reverse () =
  (* the reverse direction of the protected link must not be used as
     part of the "alternative" *)
  let g = Builders.line 2 in
  let l = Option.get (Graph.find_link g 0 1) in
  Alcotest.(check bool) "no detour on isolated edge" true
    (Oracles.best_detour g l = None)

let test_classify_profile_sums_to_one () =
  let g = Isp_zoo.graph Isp_zoo.Exodus in
  let p = Detour.classify_links g in
  let sum =
    p.Detour.one_hop +. p.Detour.two_hop +. p.Detour.three_plus
    +. p.Detour.unavailable
  in
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1. sum

(* Table 1 classes by BFS hop count: on every physical link of the
   nine ISP graphs, the class derived from best_detour's Dijkstra path *)
let test_isp_zoo_matches_best_detour () =
  List.iter
    (fun isp ->
      let g = Isp_zoo.graph isp in
      List.iter
        (fun (l : Link.t) ->
          let reference =
            match Oracles.best_detour g l with
            | None -> Detour.Unavailable
            | Some p -> Detour.Detour (Path.hops p - 1)
          in
          if Detour.classify_link g l <> reference then
            Alcotest.failf "%s link %d: class differs from best_detour"
              (Isp_zoo.name isp) l.Link.id)
        (Graph.undirected_links g))
    Isp_zoo.all

(* ------------------------------------------------------------------ *)
(* detours_via *)

let test_detours_via_diamond () =
  let g = Fixtures.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3); (0, 3) ] in
  let l = Option.get (Graph.find_link g 0 3) in
  let ds = Oracles.detours_via g l ~max_intermediate:1 in
  let vias = List.map fst ds in
  Alcotest.(check (list int)) "two 1-hop detours" [ 1; 2 ]
    (List.sort Int.compare vias);
  List.iter
    (fun (_, p) ->
      Alcotest.(check int) "1 intermediate" 2 (Path.hops p);
      Alcotest.(check int) "src" 0 (Path.src p);
      Alcotest.(check int) "dst" 3 (path_dst p))
    ds

let test_detours_via_depth_limit () =
  let g = Fixtures.ring 5 in
  let l = Option.get (Graph.find_link g 0 1) in
  Alcotest.(check int) "no detour within 2"
    0
    (List.length (Oracles.detours_via g l ~max_intermediate:2));
  Alcotest.(check int) "detour within 3"
    1
    (List.length (Oracles.detours_via g l ~max_intermediate:3))

let test_detours_via_excludes_protected () =
  let g = Fixtures.ring 4 in
  let l = Option.get (Graph.find_link g 0 1) in
  List.iter
    (fun (_, p) ->
      Alcotest.(check bool) "protected link unused" false
        (List.exists (fun (l' : Link.t) -> l'.Link.id = l.Link.id) p.Path.links))
    (Oracles.detours_via g l ~max_intermediate:3)

let test_detours_via_no_bounce () =
  (* first hop must not return through the origin node *)
  let g = Fixtures.ring 4 in
  let l = Option.get (Graph.find_link g 0 1) in
  List.iter
    (fun (_, p) ->
      let inner = List.tl p.Path.nodes in
      let inner = List.filteri (fun i _ -> i < List.length inner - 1) inner in
      Alcotest.(check bool) "origin not revisited" false (List.mem 0 inner))
    (Oracles.detours_via g l ~max_intermediate:3)

(* Reference detours_via: the same candidate rule, with an unbounded
   search per neighbour.  The library's search stops at the far end or
   past the depth bound; the results must not differ. *)
let reference_detours_via g (l : Link.t) ~max_intermediate =
  let rev_id =
    match Graph.reverse g l with Some r -> r.Link.id | None -> -1
  in
  let banned (l' : Link.t) = l'.Link.id = l.Link.id || l'.Link.id = rev_id in
  let u = l.Link.src and v = l.Link.dst in
  List.filter_map
    (fun (first : Link.t) ->
      let w = first.Link.dst in
      if banned first || w = v then None
      else
        let tree =
          Dijkstra.run
            ~forbidden_links:(fun l' -> banned l' || l'.Link.dst = u)
            g w
        in
        match Dijkstra.path_to tree v with
        | Some cont when Path.hops cont <= max_intermediate ->
          Some (w, Result.get_ok (Path.of_links (first :: cont.Path.links)))
        | Some _ | None -> None)
    (Graph.out_links g u)
  |> List.sort (fun (w1, p1) (w2, p2) ->
         match Int.compare (Path.hops p1) (Path.hops p2) with
         | 0 -> Int.compare w1 w2
         | c -> c)

(* detours_via, and a table queried in link-id order and in reverse
   (each source's lists are filled by whichever of its links comes
   first), against the reference *)
let test_detours_via_matches_reference () =
  let ids ds =
    List.map
      (fun (w, p) -> (w, List.map (fun (l : Link.t) -> l.Link.id) p.Path.links))
      ds
  in
  List.iter
    (fun isp ->
      let g = Isp_zoo.graph isp in
      List.iter
        (fun max_intermediate ->
          let forward = Detour.Table.create ~max_intermediate g in
          let backward = Detour.Table.create ~max_intermediate g in
          List.iter
            (fun l -> ignore (Detour.Table.find backward l))
            (List.rev (Graph.links g));
          List.iter
            (fun l ->
              let expected = ids (reference_detours_via g l ~max_intermediate) in
              List.iter
                (fun (how, got) ->
                  if ids got <> expected then
                    Alcotest.failf "%s link %d (max_intermediate %d): %s differs"
                      (Isp_zoo.name isp) l.Link.id max_intermediate how)
                [
                  ("detours_via", Oracles.detours_via g l ~max_intermediate);
                  ("forward table", Detour.Table.find forward l);
                  ("reverse table", Detour.Table.find backward l);
                ])
            (Graph.links g))
        [ 1; 2 ])
    Isp_zoo.all

(* ------------------------------------------------------------------ *)
(* Table 1 calibration *)

let check_isp_row ?(tolerance = 4.0) isp =
  let p1, p2, p3, pna = Isp_zoo.table1_row isp in
  let profile = Detour.classify_links (Isp_zoo.graph isp) in
  let checks =
    [
      ("1 hop", p1, 100. *. profile.Detour.one_hop);
      ("2 hops", p2, 100. *. profile.Detour.two_hop);
      ("3+ hops", p3, 100. *. profile.Detour.three_plus);
      ("N/A", pna, 100. *. profile.Detour.unavailable);
    ]
  in
  List.iter
    (fun (label, expected, actual) ->
      if Float.abs (expected -. actual) > tolerance then
        Alcotest.failf "%s %s: paper %.2f%% vs synthetic %.2f%%"
          (Isp_zoo.name isp) label expected actual)
    checks

let isp_calibration_tests =
  List.map
    (fun isp ->
      Alcotest.test_case (Isp_zoo.name isp) `Quick (fun () ->
          check_isp_row isp))
    Isp_zoo.all

let test_zoo_connected () =
  List.iter
    (fun isp ->
      Alcotest.(check bool)
        (Isp_zoo.name isp ^ " connected")
        true
        (Graph.is_strongly_connected (Isp_zoo.graph isp)))
    Isp_zoo.all

let test_zoo_sizes () =
  List.iter
    (fun isp ->
      let s = Isp_zoo.spec isp in
      let g = Isp_zoo.graph isp in
      let actual = List.length (Graph.undirected_links g) in
      let drift = abs (actual - s.Isp_zoo.target_links) in
      if drift > 5 then
        Alcotest.failf "%s: %d links vs target %d" (Isp_zoo.name isp) actual
          s.Isp_zoo.target_links)
    Isp_zoo.all

let test_zoo_deterministic () =
  let a = Isp_zoo.generate (Isp_zoo.spec Isp_zoo.Sprint) in
  let b = Isp_zoo.generate (Isp_zoo.spec Isp_zoo.Sprint) in
  let nodes g =
    List.map
      (fun (v : Node.t) -> (v.Node.name, v.Node.role))
      (Graph.nodes g)
  in
  let links g =
    List.map
      (fun (l : Link.t) ->
        ((l.Link.src, l.Link.dst), (l.Link.capacity, l.Link.delay)))
      (Graph.links g)
  in
  Alcotest.(check bool) "same nodes" true (nodes a = nodes b);
  Alcotest.(check (list (pair (pair int int) (pair (float 0.) (float 0.)))))
    "same links" (links a) (links b)

let test_zoo_names () =
  Alcotest.(check (list string)) "Table 1 rows"
    [
      "Exodus (US)"; "VSNL (IN)"; "Level 3"; "Sprint (US)"; "AT&T (US)";
      "EBONE (EU)"; "Telstra (AUS)"; "Tiscali (EU)"; "Verio (US)";
    ]
    (List.map Isp_zoo.name Isp_zoo.all)

let test_zoo_average_row () =
  (* the paper's Average row: 52.80 / 30.86 / 3.24 / 13.10 *)
  let profiles = List.map (fun i -> Detour.classify_links (Isp_zoo.graph i)) Isp_zoo.all in
  let n = float_of_int (List.length profiles) in
  let avg f = 100. *. List.fold_left (fun acc p -> acc +. f p) 0. profiles /. n in
  let a1 = avg (fun p -> p.Detour.one_hop) in
  let a2 = avg (fun p -> p.Detour.two_hop) in
  let a3 = avg (fun p -> p.Detour.three_plus) in
  let ana = avg (fun p -> p.Detour.unavailable) in
  let close expected actual =
    Alcotest.(check bool)
      (Printf.sprintf "avg %.2f vs %.2f" expected actual)
      true
      (Float.abs (expected -. actual) < 3.)
  in
  close 52.80 a1;
  close 30.86 a2;
  close 3.24 a3;
  close 13.10 ana

let test_fig4_isps () =
  Alcotest.(check int) "three ISPs" 3 (List.length Isp_zoo.fig4_isps);
  Alcotest.(check bool) "telstra included" true
    (List.mem Isp_zoo.Telstra Isp_zoo.fig4_isps)

(* ------------------------------------------------------------------ *)
(* Detour gate: minor words for one classify_links pass over the nine
   ISP graphs (one BFS workspace per graph, then a closure and a
   reverse-link lookup per link) and for querying every link of
   Telstra in a fresh table (the workspace, each source's continuation
   array and boxed heap priorities, then per candidate its path and
   list cells).  Bit-deterministic; each figure is frozen with 1.25x
   headroom and printed on failure. *)

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

let test_gate_classify_links () =
  let graphs = List.map Isp_zoo.graph Isp_zoo.all in
  check_minor_words "classify_links over the ISP zoo" ~frozen:73772.
    (fun () -> List.iter (fun g -> ignore (Detour.classify_links g)) graphs)

let test_gate_table_fill () =
  let g = Isp_zoo.graph Isp_zoo.Telstra in
  let links = Graph.links g in
  check_minor_words "Telstra table fill" ~frozen:707030. (fun () ->
      let t = Detour.Table.create g in
      List.iter (fun l -> ignore (Detour.Table.find t l)) links)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_best_detour_consistent_with_class =
  QCheck.Test.make
    ~name:"best_detour length matches classify_link" ~count:40
    (QCheck.make QCheck.Gen.(pair (int_range 5 25) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Fixtures.erdos_renyi ~seed:(Int64.of_int seed) ~p:0.3 n in
      List.for_all
        (fun l ->
          match Detour.classify_link g l, Oracles.best_detour g l with
          | Detour.Unavailable, None -> true
          | Detour.Detour k, Some p -> Path.hops p = k + 1
          | _ -> false)
        (Graph.undirected_links g))

let prop_detours_via_within_depth =
  QCheck.Test.make ~name:"detours_via respects depth bound" ~count:40
    (QCheck.make QCheck.Gen.(pair (int_range 5 20) (int_range 0 10_000)))
    (fun (n, seed) ->
      let g = Fixtures.erdos_renyi ~seed:(Int64.of_int seed) ~p:0.35 n in
      List.for_all
        (fun l ->
          List.for_all
            (fun (_, p) -> Path.hops p <= 3)
            (Oracles.detours_via g l ~max_intermediate:2))
        (Graph.undirected_links g))

(* Dense random graphs have many equal-length continuations, so this
   pins the table's choice among them to the reference Dijkstra's,
   which the ISP zoo alone does not *)
let prop_table_matches_reference =
  QCheck.Test.make ~name:"detour table matches reference" ~count:40
    (QCheck.make
       QCheck.Gen.(triple (int_range 5 20) (int_range 0 10_000) (int_range 1 3)))
    (fun (n, seed, max_intermediate) ->
      let g = Fixtures.erdos_renyi ~seed:(Int64.of_int seed) ~p:0.35 n in
      let t = Detour.Table.create ~max_intermediate g in
      let ids ds =
        List.map
          (fun (w, p) ->
            (w, List.map (fun (l : Link.t) -> l.Link.id) p.Path.links))
          ds
      in
      List.for_all
        (fun l ->
          ids (Detour.Table.find t l)
          = ids (reference_detours_via g l ~max_intermediate))
        (List.rev (Graph.links g)))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "detour"
    [
      ( "classification",
        [
          Alcotest.test_case "triangle 1-hop" `Quick test_triangle_one_hop;
          Alcotest.test_case "square 2-hop" `Quick test_square_two_hop;
          Alcotest.test_case "pentagon 3-hop" `Quick test_pentagon_three_plus;
          Alcotest.test_case "bridge unavailable" `Quick test_bridge_unavailable;
          Alcotest.test_case "mesh all 1-hop" `Quick test_mesh_all_one_hop;
          Alcotest.test_case "best detour path" `Quick test_best_detour_path;
          Alcotest.test_case "reverse excluded" `Quick test_best_detour_ignores_reverse;
          Alcotest.test_case "profile sums to 1" `Quick test_classify_profile_sums_to_one;
          Alcotest.test_case "isp zoo matches best_detour" `Quick
            test_isp_zoo_matches_best_detour;
        ] );
      ( "detours_via",
        [
          Alcotest.test_case "diamond" `Quick test_detours_via_diamond;
          Alcotest.test_case "depth limit" `Quick test_detours_via_depth_limit;
          Alcotest.test_case "protected excluded" `Quick test_detours_via_excludes_protected;
          Alcotest.test_case "no bounce" `Quick test_detours_via_no_bounce;
          Alcotest.test_case "isp zoo matches unbounded reference" `Quick
            test_detours_via_matches_reference;
        ] );
      ("table1 calibration", isp_calibration_tests);
      ( "isp zoo",
        [
          Alcotest.test_case "connected" `Quick test_zoo_connected;
          Alcotest.test_case "sizes" `Quick test_zoo_sizes;
          Alcotest.test_case "deterministic" `Quick test_zoo_deterministic;
          Alcotest.test_case "names" `Quick test_zoo_names;
          Alcotest.test_case "average row" `Quick test_zoo_average_row;
          Alcotest.test_case "fig4 trio" `Quick test_fig4_isps;
        ] );
      ( "detour gate",
        [
          Alcotest.test_case "classify_links isp zoo" `Quick
            test_gate_classify_links;
          Alcotest.test_case "table fill telstra" `Quick test_gate_table_fill;
        ] );
      ( "properties",
        qc
          [
            prop_best_detour_consistent_with_class;
            prop_detours_via_within_depth;
            prop_table_matches_reference;
          ] );
    ]
