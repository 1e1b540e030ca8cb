(* Tests for the metrics library: fairness indices and report
   rendering. *)

let check_close msg tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Jain's index *)

let test_jain_equal_shares () =
  check_close "all equal" 1e-12 1. (Metrics.Fairness.jain [| 5.; 5.; 5.; 5. |])

let test_jain_single_hog () =
  (* one of n gets everything: F = 1/n *)
  check_close "1/4" 1e-12 0.25 (Metrics.Fairness.jain [| 8.; 0.; 0.; 0. |])

let test_jain_paper_example () =
  (* the paper's Fig. 3 left-hand computation: flows at 2 and 8 Mbps *)
  check_close "0.735" 1e-3 0.735 (Metrics.Fairness.jain [| 2.; 8. |]);
  (* right-hand side: 5 and 5 *)
  check_close "perfect" 1e-12 1. (Metrics.Fairness.jain [| 5.; 5. |])

let test_jain_edge_cases () =
  check_close "empty" 1e-12 1. (Metrics.Fairness.jain [||]);
  check_close "all zero" 1e-12 1. (Metrics.Fairness.jain [| 0.; 0. |]);
  check_close "singleton" 1e-12 1. (Metrics.Fairness.jain [| 3. |]);
  Alcotest.check_raises "negative"
    (Invalid_argument "Fairness: negative or NaN throughput") (fun () ->
      ignore (Metrics.Fairness.jain [| 1.; -1. |]))

let test_jain_scale_invariant () =
  let a = Metrics.Fairness.jain [| 1.; 2.; 3. |] in
  let b = Metrics.Fairness.jain [| 10.; 20.; 30. |] in
  check_close "scale invariant" 1e-12 a b

(* ------------------------------------------------------------------ *)
(* Report *)

let render f = Format.asprintf "%t" (fun ppf -> f ppf ())

let test_table_alignment () =
  let out =
    render
      (Metrics.Report.table ~header:[ "name"; "value" ]
         [ [ "alpha"; "1" ]; [ "b"; "22" ] ])
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* all lines same width *)
  match lines with
  | first :: rest ->
    List.iter
      (fun l -> Alcotest.(check int) "aligned" (String.length first) (String.length l))
      rest
  | [] -> Alcotest.fail "no output"

let test_table_validation () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Report.table: row 0 has 1 cells, expected 2") (fun () ->
      render (Metrics.Report.table ~header:[ "a"; "b" ] [ [ "only" ] ])
      |> ignore)

let test_bar_chart () =
  let out =
    render
      (Metrics.Report.bar_chart ~width:10 ~header:"test"
         [ ("full", 10.); ("half", 5.); ("zero", 0.) ])
  in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0 && String.sub out 0 4 = "test");
  (* the full bar must be twice the half bar *)
  let count_hashes line =
    String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 line
  in
  let lines = String.split_on_char '\n' out in
  let full = List.find (fun l -> String.length l > 3 && String.sub l 0 4 = "full") lines in
  let half = List.find (fun l -> String.length l > 3 && String.sub l 0 4 = "half") lines in
  Alcotest.(check int) "proportional" (count_hashes full) (2 * count_hashes half)

let test_cdf_plot_runs () =
  let series =
    [
      ("a", [ (1.0, 0.2); (1.1, 0.6); (1.3, 1.0) ]);
      ("b", [ (1.0, 0.5); (1.2, 1.0) ]);
    ]
  in
  let out = render (Metrics.Report.cdf_plot ~width:30 ~height:8 ~header:"cdf" series) in
  Alcotest.(check bool) "mentions legend a" true
    (String.length out > 0
    && String.split_on_char '\n' out
       |> List.exists (fun l -> String.trim l = "* a"));
  Alcotest.(check bool) "draws glyphs" true (String.contains out '*')

let test_percent () =
  Alcotest.(check string) "format" "12.34%" (Metrics.Report.percent 0.1234)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_jain_range =
  QCheck.Test.make ~name:"jain in [1/n, 1]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_inclusive 100.))
    (fun xs ->
      let arr = Array.of_list xs in
      let j = Metrics.Fairness.jain arr in
      let n = float_of_int (Array.length arr) in
      j >= (1. /. n) -. 1e-9 && j <= 1. +. 1e-9)

let prop_jain_max_at_equal =
  QCheck.Test.make ~name:"equal vectors maximise jain" ~count:100
    QCheck.(pair (float_range 0.1 100.) (int_range 2 10))
    (fun (v, n) ->
      let equal = Array.make n v in
      Metrics.Fairness.jain equal > 1. -. 1e-9)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "metrics"
    [
      ( "jain",
        [
          Alcotest.test_case "equal shares" `Quick test_jain_equal_shares;
          Alcotest.test_case "single hog" `Quick test_jain_single_hog;
          Alcotest.test_case "paper example" `Quick test_jain_paper_example;
          Alcotest.test_case "edge cases" `Quick test_jain_edge_cases;
          Alcotest.test_case "scale invariance" `Quick test_jain_scale_invariant;
        ] );
      ( "report",
        [
          Alcotest.test_case "table alignment" `Quick test_table_alignment;
          Alcotest.test_case "table validation" `Quick test_table_validation;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
          Alcotest.test_case "cdf plot" `Quick test_cdf_plot_runs;
          Alcotest.test_case "percent" `Quick test_percent;
        ] );
      ("properties", qc [ prop_jain_range; prop_jain_max_at_equal ]);
    ]
