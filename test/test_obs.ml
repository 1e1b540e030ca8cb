(* Observability subsystem: registry, series, sampler, sinks, export
   round-trips, and the end-to-end protocol instrumentation. *)

module M = Obs.Metric
module J = Obs.Json

let check_close msg eps expected got =
  if Float.abs (expected -. got) > eps then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected got

(* ------------------------------------------------------------------ *)
(* Metric registry *)

let test_metric_basics () =
  let reg = M.create () in
  let c = M.counter reg ~labels:[ ("node", "1") ] "reqs" in
  let h = M.histogram reg ~lo:0. ~hi:10. ~bins:5 "fct" in
  for _ = 1 to 5 do
    M.incr c
  done;
  List.iter (M.observe h) [ 1.; 3.; 9. ];
  M.callback reg "cb" (fun () -> 42.);
  match M.snapshot reg with
  | [ s1; s2; s3 ] ->
    Alcotest.(check string) "registration order" "reqs" s1.M.name;
    (match s1.M.value with
    | M.Counter_v 5 -> ()
    | _ -> Alcotest.fail "counter sample");
    Alcotest.(check (list (pair string string))) "labels kept"
      [ ("node", "1") ] s1.M.labels;
    (match s2.M.value with
    | M.Histogram_v hs ->
      Alcotest.(check int) "hist count" 3 hs.M.count;
      check_close "hist sum" 1e-9 13. hs.M.sum;
      check_close "hist min" 1e-9 1. hs.M.min_v;
      check_close "hist max" 1e-9 9. hs.M.max_v;
      Alcotest.(check int) "bucket total" 3
        (List.fold_left (fun acc (_, _, n) -> acc + n) 0 hs.M.buckets)
    | _ -> Alcotest.fail "histogram sample");
    (match s3.M.value with
    | M.Gauge_v v -> check_close "callback read at snapshot" 1e-9 42. v
    | _ -> Alcotest.fail "callback sample")
  | l -> Alcotest.failf "expected 3 samples, got %d" (List.length l)

let test_metric_duplicate () =
  let reg = M.create () in
  ignore (M.counter reg ~labels:[ ("a", "1") ] "x");
  (* same name, different labels: fine *)
  ignore (M.counter reg ~labels:[ ("a", "2") ] "x");
  Alcotest.check_raises "duplicate (name, labels)"
    (Invalid_argument "Metric.register: duplicate x{a=1}") (fun () ->
      ignore (M.counter reg ~labels:[ ("a", "1") ] "x"))

(* The hot path must not allocate: counters are int-field bumps.
   Histograms go through
   Stats.Running (a mixed record, so each float store boxes) — bounded
   per-op, but the point of the handle design is that there is no
   per-event closure or lookup on any of them. *)
let test_metric_hot_path_no_alloc () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> () (* bytecode boxes every float *)
  | Sys.Native ->
    let reg = M.create () in
    let c = M.counter reg "c" in
    let h = M.histogram reg ~lo:0. ~hi:1. ~bins:4 "h" in
    let rounds = 10_000 in
    let measure f =
      f ();  (* warm up: first call may allocate lazily *)
      let before = Gc.minor_words () in
      for _ = 1 to rounds do
        f ()
      done;
      Gc.minor_words () -. before
    in
    check_close "incr allocates nothing" 0. 0. (measure (fun () -> M.incr c));
    let per_op = measure (fun () -> M.observe h 0.5) /. float_of_int rounds in
    Alcotest.(check bool) "observe stays O(words), no closures" true
      (per_op < 16.)

(* ------------------------------------------------------------------ *)
(* Series *)

(* a series' points, oldest first *)
let points s =
  let acc = ref [] in
  Obs.Series.iter (fun ~time v -> acc := (time, v) :: !acc) s;
  Array.of_list (List.rev !acc)

let max_value s = Array.fold_left (fun m (_, v) -> Float.max m v) neg_infinity (points s)

let find_series series ?labels name =
  List.find_opt
    (fun s ->
      Obs.Series.name s = name
      && match labels with None -> true | Some l -> Obs.Series.labels s = l)
    series

let test_series_basics () =
  let s = Obs.Series.create ~labels:[ ("link", "0") ] "q" in
  Alcotest.(check int) "empty" 0 (Array.length (points s));
  for i = 0 to 999 do
    Obs.Series.add s ~time:(float_of_int i) (float_of_int (i * 2))
  done;
  let ps = points s in
  Alcotest.(check int) "growth past initial capacity" 1000 (Array.length ps);
  let t5, v5 = ps.(5) in
  check_close "point 5 time" 1e-9 5. t5;
  check_close "point 5 value" 1e-9 10. v5;
  let t, v = ps.(999) in
  check_close "last time" 1e-9 999. t;
  check_close "last value" 1e-9 1998. v;
  Alcotest.check_raises "time must not go backwards"
    (Invalid_argument "Series.add: time went backwards") (fun () ->
      Obs.Series.add s ~time:0. 0.)

(* ------------------------------------------------------------------ *)
(* Sampler *)

let test_sampler () =
  let eng = Sim.Engine.create () in
  let smp = Obs.Sampler.create ~eng ~interval:0.1 () in
  let x = ref 0. in
  let hook_runs = ref 0 in
  Obs.Sampler.on_sample smp (fun () -> incr hook_runs);
  let sx = Obs.Sampler.track smp "x" (fun () -> !x) in
  ignore (Obs.Sampler.track smp ~labels:[ ("k", "v") ] "x" (fun () -> 2. *. !x));
  ignore
    (Sim.Engine.schedule eng ~delay:0.25 (fun () -> x := 7.));
  Obs.Sampler.start smp;
  Sim.Engine.run ~until:0.55 eng;
  (* baseline at t=0 plus ticks at 0.1..0.5 *)
  let ps = points sx in
  Alcotest.(check int) "points" 6 (Array.length ps);
  Alcotest.(check int) "hook once per sample" 6 !hook_runs;
  let t0, v0 = ps.(0) in
  check_close "baseline time" 1e-9 0. t0;
  check_close "baseline value" 1e-9 0. v0;
  let _, v3 = ps.(3) in
  check_close "sees the scheduled change" 1e-9 7. v3;
  match find_series (Obs.Sampler.series smp) ~labels:[ ("k", "v") ] "x" with
  | Some s ->
    let _, v = (points s).(5) in
    check_close "labelled probe tracked separately" 1e-9 14. v
  | None -> Alcotest.fail "labelled series"

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_round_trip () =
  let v =
    J.Obj
      [
        ("a", J.Num 0.1);
        ("b", J.Num (-1. /. 3.));
        ("c", J.Num 1e-9);
        ("d", J.Num 12345678901234.);
        ("e", J.Str "quote \" slash \\ newline \n tab \t");
        ("f", J.List [ J.Null; J.Bool true; J.Bool false; J.Num (-0.) ]);
        ("empty", J.Obj []);
      ]
  in
  match J.parse (J.to_string v) with
  | Ok v' ->
    if v' <> v then
      Alcotest.failf "round trip changed the value: %s vs %s" (J.to_string v)
        (J.to_string v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_accessors () =
  match J.parse {|{"n": 3, "s": "hi", "x": 2.5}|} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v ->
    Alcotest.(check (option int)) "int" (Some 3)
      (Option.bind (J.member "n" v) J.to_int);
    Alcotest.(check (option string)) "str" (Some "hi")
      (Option.bind (J.member "s" v) J.to_str);
    (match Option.bind (J.member "x" v) J.to_float with
    | Some f -> check_close "float" 1e-12 2.5 f
    | None -> Alcotest.fail "float member");
    Alcotest.(check bool) "missing member" true (J.member "zz" v = None)

let test_json_nonfinite () =
  (* JSON has no literals for NaN or the infinities: NaN prints as
     null (and parses back as Null — the Export layer restores NaN);
     the infinities print as the overflow literal 1e999, which parses
     straight back to an infinite float *)
  Alcotest.(check string) "nan prints as null" "null"
    (J.to_string (J.Num Float.nan));
  Alcotest.(check string) "inf" "1e999" (J.to_string (J.Num infinity));
  Alcotest.(check string) "-inf" "-1e999" (J.to_string (J.Num neg_infinity));
  let printed =
    J.to_string (J.List [ J.Num Float.nan; J.Num infinity; J.Num neg_infinity ])
  in
  match J.parse printed with
  | Ok (J.List [ J.Null; J.Num pos; J.Num neg ]) ->
    Alcotest.(check bool) "1e999 parses to inf" true (pos = infinity);
    Alcotest.(check bool) "-1e999 parses to -inf" true (neg = neg_infinity)
  | Ok j -> Alcotest.failf "unexpected reparse %s" (J.to_string j)
  | Error e -> Alcotest.failf "reparse failed: %s" e

(* ------------------------------------------------------------------ *)
(* Incremental NDJSON reader *)

(* drain a reader into ([Ok] values, first [Error]) *)
let drain r =
  let rec loop acc =
    match J.Reader.next r with
    | None -> (List.rev acc, None)
    | Some (Ok v) -> loop (v :: acc)
    | Some (Error e) -> (List.rev acc, Some e)
  in
  loop []

(* [f] applied to a reader of [input], written to a temp file first *)
let with_reader input f =
  let path = Filename.temp_file "obs_reader" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc input);
      In_channel.with_open_bin path (fun ic ->
          f (J.Reader.of_channel ic)))

let read input = with_reader input drain

let test_reader_basics () =
  let input = {|{"a":1}
[1,2,3]

"hello"
|} in
  let (values, err), lines =
    with_reader input (fun r ->
        let drained = drain r in
        (drained, J.Reader.line_no r))
  in
  Alcotest.(check (option string)) "no error" None err;
  Alcotest.(check int) "three values (blank skipped)" 3 (List.length values);
  Alcotest.(check int) "line count includes the blank" 4 lines;
  match values with
  | [ J.Obj [ ("a", J.Num 1.) ]; J.List _; J.Str "hello" ] -> ()
  | _ -> Alcotest.fail "unexpected values"

let test_reader_long_line () =
  (* one line far beyond a channel's 64 KiB buffer: memory is bounded
     by the longest line, and the line must reassemble across refills *)
  let big = String.make 70_000 'x' in
  let v = J.Obj [ ("payload", J.Str big); ("n", J.Num 7.) ] in
  let input = J.to_string v ^ "\n" ^ {|{"tail":true}|} ^ "\n" in
  Alcotest.(check bool) "line really exceeds 64 KiB" true
    (String.length (J.to_string v) > 65_536);
  let values, err = read input in
  Alcotest.(check (option string)) "no error" None err;
  (match values with
  | [ v'; J.Obj [ ("tail", J.Bool true) ] ] ->
    if v' <> v then Alcotest.fail "long line changed in transit"
  | _ -> Alcotest.fail "unexpected shape")

let test_reader_truncated_tail () =
  (* a writer died mid-line: the complete lines parse, the torn tail
     surfaces as an Error carrying its line number *)
  let input = "{\"a\":1}\n{\"b\":2}\n{\"c\":" in
  let values, err = read input in
  Alcotest.(check int) "complete lines parsed" 2 (List.length values);
  (match err with
  | Some e ->
    Alcotest.(check bool) ("error names line 3: " ^ e) true
      (String.length e >= 7 && String.sub e 0 7 = "line 3:")
  | None -> Alcotest.fail "truncated tail must error");
  (* a trailing newline-terminated stream has no torn tail *)
  let _, err' = read "{\"a\":1}\n" in
  Alcotest.(check (option string)) "terminated stream clean" None err'

let test_reader_crlf () =
  let input = "{\"a\":1}\r\n{\"b\":2}\r\n" in
  let values, err = read input in
  Alcotest.(check (option string)) "no error" None err;
  (match values with
  | [ J.Obj [ ("a", J.Num 1.) ]; J.Obj [ ("b", J.Num 2.) ] ] -> ()
  | _ -> Alcotest.fail "CRLF lines must parse like LF lines");
  (* a blank CRLF line is skipped but counted, and an unterminated
     tail is still yielded *)
  let (values, err), lines =
    with_reader "{\"a\":1}\r\n\r\n{\"b\":2}" (fun r ->
        let drained = drain r in
        (drained, J.Reader.line_no r))
  in
  Alcotest.(check (option string)) "no error (blank, tail)" None err;
  Alcotest.(check int) "two values" 2 (List.length values);
  Alcotest.(check int) "three lines" 3 lines

let test_reader_of_channel () =
  let values, err = read "{\"x\":1}\n\n{\"y\":[1,2]}\n" in
  Alcotest.(check (option string)) "no error" None err;
  Alcotest.(check int) "two values" 2 (List.length values)

(* equivalence sweep: anything the in-memory parser round-trips, the
   incremental reader must round-trip identically — including the
   non-finite encodings the Export layer leans on *)
let test_reader_matches_parse () =
  let cases =
    [
      J.Null;
      J.Bool false;
      J.Num 0.1;
      J.Num (-1. /. 3.);
      J.Num 1e-9;
      J.Num infinity;
      J.Str "quote \" slash \\ newline \n tab \t";
      J.List [ J.Null; J.Bool true; J.Num (-0.) ];
      J.Obj [ ("nested", J.Obj [ ("deep", J.List [ J.Num 1. ]) ]) ];
      Obs.Export.sample_to_json
        { M.name = "c"; labels = [ ("node", "3") ]; value = M.Counter_v 17 };
    ]
  in
  let input =
    String.concat "" (List.map (fun v -> J.to_string v ^ "\n") cases)
  in
  let values, err = read input in
  Alcotest.(check (option string)) "no error" None err;
  let expected =
    List.map
      (fun v ->
        match J.parse (J.to_string v) with
        | Ok v' -> v'
        | Error e -> Alcotest.failf "in-memory parse failed: %s" e)
      cases
  in
  if values <> expected then Alcotest.fail "reader disagrees with J.parse"

(* ------------------------------------------------------------------ *)
(* Export round-trips *)

(* [j] without its field [key]: a row some writer left incomplete *)
let without key = function
  | J.Obj fields -> J.Obj (List.remove_assoc key fields)
  | j -> j

let refused what = function
  | Ok _ -> Alcotest.failf "%s decoded" what
  | Error _ -> ()

let test_export_sample_round_trip () =
  let samples =
    [
      { M.name = "c"; labels = [ ("node", "3") ]; value = M.Counter_v 17 };
      { M.name = "g"; labels = []; value = M.Gauge_v 2.75 };
      {
        M.name = "h";
        labels = [ ("a", "b"); ("c", "d") ];
        value =
          M.Histogram_v
            {
              M.count = 2;
              sum = 3.;
              mean = 1.5;
              min_v = 1.;
              max_v = 2.;
              buckets = [ (0., 1., 1); (1., 2., 1) ];
            };
      };
    ]
  in
  List.iter
    (fun s ->
      match Obs.Export.sample_of_json (Obs.Export.sample_to_json s) with
      | Ok s' ->
        if s <> s' then Alcotest.failf "sample %s changed in round trip" s.M.name
      | Error e -> Alcotest.failf "sample %s: %s" s.M.name e)
    samples;
  refused "unknown kind"
    (Result.bind
       (J.parse {|{"type":"metric","name":"c","kind":"summary","value":1}|})
       Obs.Export.sample_of_json);
  refused "histogram without its count"
    (Obs.Export.sample_of_json
       (without "count" (Obs.Export.sample_to_json (List.nth samples 2))))

let test_export_ndjson_and_csv () =
  let s = Obs.Series.create ~labels:[ ("link", "1") ] "q" in
  Obs.Series.add s ~time:0. 1.5;
  Obs.Series.add s ~time:0.1 2.5;
  let buf = Buffer.create 256 in
  Obs.Export.series_to_ndjson buf [ s ];
  let lines =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
  in
  Alcotest.(check int) "one line per point" 2 (List.length lines);
  List.iteri
    (fun i line ->
      match
        Result.bind (J.parse line) (fun j ->
            Obs.Export.point_of_json j)
      with
      | Ok (name, labels, t, v) ->
        Alcotest.(check string) "series name" "q" name;
        Alcotest.(check (list (pair string string))) "labels"
          [ ("link", "1") ] labels;
        check_close "time" 1e-12 (0.1 *. float_of_int i) t;
        check_close "value" 1e-12 (1.5 +. float_of_int i) v
      | Error e -> Alcotest.failf "line %d: %s" i e)
    lines;
  refused "sample without t"
    (Obs.Export.point_of_json
       (without "t" (Obs.Export.point_to_json s ~time:0. 1.5)));
  (* CSV: header + histogram flattening *)
  let reg = M.create () in
  let h = M.histogram reg ~lo:0. ~hi:4. ~bins:2 "fct" in
  M.observe h 1.;
  M.observe h 3.;
  let buf = Buffer.create 256 in
  Obs.Export.snapshot_to_csv buf ~time:9. (M.snapshot reg);
  Obs.Export.series_to_csv buf [ s ];
  let rows =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
  in
  (* fct.count/.sum/.mean/.min/.max + 2 series points *)
  Alcotest.(check int) "csv rows" 7 (List.length rows);
  Alcotest.(check bool) "histogram flattened" true
    (List.exists
       (fun r ->
         String.length r >= 20 && String.sub r 0 20 = "histogram,fct.count,")
       rows);
  Alcotest.(check string) "header shape" "record,name,labels,time,value"
    Obs.Export.csv_header;
  Alcotest.(check string) "labels cell" "a=1;b=2"
    (Obs.Export.labels_to_string [ ("a", "1"); ("b", "2") ])

let reparse_sample s =
  (* full text path: print, reparse, decode *)
  match
    Result.bind
      (J.parse (J.to_string (Obs.Export.sample_to_json s)))
      Obs.Export.sample_of_json
  with
  | Ok s' -> s'
  | Error e -> Alcotest.failf "sample %s: %s" s.M.name e

let test_export_nonfinite_round_trip () =
  (* a NaN gauge (e.g. a 0/0 ratio callback) survives the text path *)
  let g = { M.name = "g"; labels = []; value = M.Gauge_v Float.nan } in
  (match reparse_sample g with
  | { M.value = M.Gauge_v v; _ } ->
    Alcotest.(check bool) "NaN gauge round-trips" true (Float.is_nan v)
  | _ -> Alcotest.fail "gauge decoded to a different kind");
  (* an empty histogram summary carries min = +inf, max = -inf *)
  let h =
    {
      M.name = "h";
      labels = [];
      value =
        M.Histogram_v
          {
            M.count = 0;
            sum = 0.;
            mean = 0.;
            min_v = infinity;
            max_v = neg_infinity;
            buckets = [ (0., 1., 0) ];
          };
    }
  in
  if reparse_sample h <> h then
    Alcotest.fail "empty histogram changed in round trip";
  (* sampled points: NaN and the infinities through point_of_json *)
  let s = Obs.Series.create "raw" in
  Obs.Series.add s ~time:0. Float.nan;
  Obs.Series.add s ~time:1. infinity;
  Obs.Series.add s ~time:2. neg_infinity;
  let buf = Buffer.create 256 in
  Obs.Export.series_to_ndjson buf [ s ];
  let vs =
    String.split_on_char '\n' (String.trim (Buffer.contents buf))
    |> List.map (fun line ->
           match Result.bind (J.parse line) Obs.Export.point_of_json with
           | Ok (_, _, _, v) -> v
           | Error e -> Alcotest.failf "point %S: %s" line e)
  in
  match vs with
  | [ a; b; c ] ->
    Alcotest.(check bool) "NaN point" true (Float.is_nan a);
    Alcotest.(check bool) "inf point" true (b = infinity);
    Alcotest.(check bool) "-inf point" true (c = neg_infinity)
  | _ -> Alcotest.failf "expected 3 points, got %d" (List.length vs)

let test_export_empty_series () =
  let s = Obs.Series.create ~labels:[ ("k", "v") ] "nothing" in
  Alcotest.(check int) "no points" 0 (Array.length (points s));
  let buf = Buffer.create 16 in
  Obs.Export.series_to_ndjson buf [ s ];
  Alcotest.(check string) "no ndjson lines" "" (Buffer.contents buf);
  Obs.Export.series_to_csv buf [ s ];
  Alcotest.(check string) "no csv rows" "" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Sinks *)

let some_events =
  [
    Chunksim.Trace.Cached { node = 1; flow = 0; idx = 3 };
    Chunksim.Trace.Phase_change { node = 1; link = 2; phase = Backpressure };
    Chunksim.Trace.Bp_signal { node = 1; flow = 0; engage = true };
    Chunksim.Trace.Cached { node = 1; flow = 0; idx = 4 };
  ]

let test_sink_counter_tap_and_filter () =
  let reg = M.create () in
  let tap = Obs.Sink.counter_tap reg in
  let seen = ref 0 in
  let only_cached =
    Obs.Sink.callback (fun _ -> function
      | Chunksim.Trace.Cached _ -> incr seen
      | _ -> ())
  in
  (* both sinks see every event of the one trace *)
  let tr = Chunksim.Trace.create () in
  Obs.Sink.attach tap tr;
  Obs.Sink.attach only_cached tr;
  List.iteri
    (fun i e -> Chunksim.Trace.record tr ~time:(float_of_int i) e)
    some_events;
  Alcotest.(check int) "filter passed only cached" 2 !seen;
  let value kind =
    List.find_map
      (fun (s : M.sample) ->
        if s.M.name = "trace_events_total" && s.M.labels = [ ("kind", kind) ]
        then
          match s.M.value with
          | M.Counter_v n -> Some n
          | _ -> None
        else None)
      (M.snapshot reg)
  in
  Alcotest.(check (option int)) "cached counted" (Some 2) (value "cached");
  Alcotest.(check (option int)) "phase_change counted" (Some 1)
    (value "phase_change");
  Alcotest.(check (option int)) "dropped untouched" (Some 0) (value "dropped")

let test_sink_ndjson_stream () =
  let file = Filename.temp_file "obs_test" ".ndjson" in
  let oc = open_out file in
  let sink = Obs.Sink.ndjson oc in
  let tr = Chunksim.Trace.create () in
  Obs.Sink.attach sink tr;
  List.iteri
    (fun i e -> Chunksim.Trace.record tr ~time:(float_of_int i) e)
    some_events;
  Obs.Sink.close sink;
  close_out oc;
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  let lines = List.rev !lines in
  Alcotest.(check int) "all events on file" (List.length some_events)
    (List.length lines);
  List.iter
    (fun line ->
      match J.parse line with
      | Ok j ->
        Alcotest.(check (option string)) "typed as event" (Some "event")
          (Option.bind (J.member "type" j) J.to_str)
      | Error e -> Alcotest.failf "bad NDJSON line %S: %s" line e)
    lines

(* ------------------------------------------------------------------ *)
(* Observer + instrumented protocol run *)

let backpressure_graph () =
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "s" in
  let n1 = Topology.Graph.Builder.add_node b "r" in
  let n2 = Topology.Graph.Builder.add_node b "d" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  Topology.Graph.Builder.build b

let test_observer_install_once () =
  let o = Obs.Observer.create () in
  let eng = Sim.Engine.create () in
  ignore (Obs.Observer.install_sampler o ~eng ~default_interval:0.1);
  Alcotest.check_raises "second install refused"
    (Invalid_argument "Observer.install_sampler: sampler already installed")
    (fun () ->
      ignore (Obs.Observer.install_sampler o ~eng ~default_interval:0.1))

let instrumented_run ?faults ?overload () =
  let cfg =
    {
      Inrpp.Config.default with
      Inrpp.Config.anticipation = 512;
      cache_bits = 30. *. Inrpp.Config.default.Inrpp.Config.chunk_bits;
    }
  in
  let o = Obs.Observer.create () in
  Obs.Observer.add_sink o (Obs.Sink.counter_tap (Obs.Observer.registry o));
  let r =
    Inrpp.Protocol.run ~cfg ~horizon:30. ~obs:o ?faults ?overload
      (backpressure_graph ())
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 150 ]
  in
  (r, o)

let test_protocol_instrumented_run () =
  let r, o = instrumented_run () in
  Alcotest.(check int) "flow completed" 1 r.Inrpp.Protocol.completed;
  (* the bottleneck router's custody store filled: its sampled series
     must show occupancy *)
  (match
     find_series (Obs.Observer.series o) ~labels:[ ("node", "1") ]
       "custody_bits"
   with
  | Some s ->
    Alcotest.(check bool) "custody occupancy sampled" true (max_value s > 0.)
  | None -> Alcotest.fail "custody_bits series for the bottleneck router");
  (* some interface spent time in back-pressure *)
  let bp_occupancy =
    List.filter
      (fun s ->
        Obs.Series.name s = "iface_phase_occupancy"
        && List.assoc_opt "phase" (Obs.Series.labels s) = Some "backpressure")
      (Obs.Observer.series o)
  in
  Alcotest.(check bool) "phase occupancy series exist" true
    (bp_occupancy <> []);
  Alcotest.(check bool) "an interface sat in backpressure" true
    (List.exists (fun s -> max_value s > 0.) bp_occupancy);
  (* callback metrics reflect the run; the counter tap saw the trace *)
  let snapshot = Obs.Observer.snapshot o in
  let find name labels =
    List.find_map
      (fun (s : M.sample) ->
        if s.M.name = name && s.M.labels = labels then
          match s.M.value with
          | M.Gauge_v v -> Some v
          | M.Counter_v n -> Some (float_of_int n)
          | M.Histogram_v _ -> None
        else None)
      snapshot
  in
  (match find "router_bp_engages_total" [ ("node", "1") ] with
  | Some v -> Alcotest.(check bool) "bottleneck engaged bp" true (v > 0.)
  | None -> Alcotest.fail "router_bp_engages_total metric");
  (match find "trace_events_total" [ ("kind", "phase_change") ] with
  | Some v ->
    check_close "tap agrees with the result counters" 0.5
      (float_of_int r.Inrpp.Protocol.phase_transitions) v
  | None -> Alcotest.fail "trace_events_total metric");
  (* every sampled series exports and parses back *)
  let buf = Buffer.create 4096 in
  Obs.Export.series_to_ndjson buf (Obs.Observer.series o);
  Obs.Export.snapshot_to_ndjson buf snapshot;
  String.split_on_char '\n' (String.trim (Buffer.contents buf))
  |> List.iter (fun line ->
         match J.parse line with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "export line %S: %s" line e)

(* Per-endpoint metrics export in flow-id order, also when several
   flows start or end at one node: on a two-host dumbbell the even
   flows run 2 -> 4 and the odd ones 3 -> 5. *)
let test_endpoint_metric_order () =
  let specs =
    List.init 12 (fun i ->
        Inrpp.Protocol.flow_spec ~src:(2 + (i mod 2)) ~dst:(4 + (i mod 2)) 4)
  in
  let o = Obs.Observer.create () in
  ignore
    (Inrpp.Protocol.run ~horizon:5. ~obs:o (Topology.Builders.dumbbell 2)
       specs);
  let snapshot = Obs.Observer.snapshot o in
  let flows = List.init 12 Fun.id in
  List.iter
    (fun (name, base) ->
      let labels =
        List.filter_map
          (fun (s : M.sample) ->
            if s.M.name = name then Some s.M.labels else None)
          snapshot
      in
      Alcotest.(check (list (list (pair string string))))
        (name ^ " in flow-id order")
        (List.map
           (fun f ->
             [ ("node", string_of_int (base + (f mod 2)));
               ("flow", string_of_int f) ])
           flows)
        labels)
    [ ("sender_tx_packets_total", 2); ("sender_backlog_chunks", 2);
      ("sender_in_backpressure", 2); ("receiver_requests_total", 4);
      ("receiver_duplicates_total", 4); ("receiver_chunks_received", 4) ]

(* The instrumentation stage with the fault, overload and watchdog
   metric sets on: every metric and series, its labels, values and
   registration order, pinned by Digest of the NDJSON export. *)
let test_instrumentation_pinned () =
  let link =
    (Option.get (Topology.Graph.find_link (backpressure_graph ()) 1 2))
      .Topology.Link.id
  in
  let faults =
    Fault.Schedule.(
      of_list
        [ { at = 0.3; event = Link_down { link; policy = `Hold_queued } };
          { at = 0.5; event = Link_up { link } };
          { at = 0.8;
            event = Node_crash { node = 1; policy = Preserve_custody } };
          { at = 1.0; event = Node_restart { node = 1 } } ])
  in
  let r, o = instrumented_run ~faults ~overload:Overload.Config.default () in
  Alcotest.(check int) "flow completed" 1 r.Inrpp.Protocol.completed;
  let buf = Buffer.create 65536 in
  Obs.Export.series_to_ndjson buf (Obs.Observer.series o);
  Obs.Export.snapshot_to_ndjson buf (Obs.Observer.snapshot o);
  Alcotest.(check string) "export digest" "c6de3f3ed207ed1c6aabffea50966ac2"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Each baseline run with an observer and one bottleneck outage on the
   4-flow dumbbell: its series and snapshot export and its result
   JSON, pinned by Digest per protocol. *)
let test_baselines_pinned () =
  let g = Topology.Builders.dumbbell 4 in
  let link = (Option.get (Topology.Graph.find_link g 0 1)).Topology.Link.id in
  let faults =
    Fault.Schedule.(
      of_list
        [ { at = 0.2; event = Link_down { link; policy = `Hold_queued } };
          { at = 0.4; event = Link_up { link } } ])
  in
  let specs =
    List.init 4 (fun i ->
        Inrpp.Protocol.flow_spec ~start:(0.01 *. float_of_int i) ~src:(2 + i)
          ~dst:(6 + i) 200)
  in
  List.iter
    (fun (p, expected) ->
      let o = Obs.Observer.create () in
      let r =
        Baselines.Comparison.run_one ~horizon:10. ~obs:o ~faults p g specs
      in
      let buf = Buffer.create 65536 in
      Obs.Export.series_to_ndjson buf (Obs.Observer.series o);
      Obs.Export.snapshot_to_ndjson buf (Obs.Observer.snapshot o);
      Buffer.add_string buf (J.to_string (Baselines.Run_result.to_json r));
      if p = Baselines.Comparison.Hbh_proto then
        Alcotest.(check int) "HBH re-requests its lost chunks" 4
          r.Baselines.Run_result.completed;
      Alcotest.(check string)
        (Baselines.Comparison.name p ^ " export digest")
        expected
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [ (Baselines.Comparison.Aimd_proto, "c58c75cbe9ec0df37a1341965f8ca981");
      (Baselines.Comparison.Mptcp_proto, "16d4ed14b9bad013bcfce1b47d529a1d");
      (Baselines.Comparison.Rcp_proto, "2142577572fc47958ed24bd045d6b823");
      (Baselines.Comparison.Hbh_proto, "0dfce72ef103d14276ebea0b32e5e11a") ]

let () =
  Alcotest.run "obs"
    [
      ( "metric",
        [
          Alcotest.test_case "basics" `Quick test_metric_basics;
          Alcotest.test_case "duplicate" `Quick test_metric_duplicate;
          Alcotest.test_case "hot path no alloc" `Quick
            test_metric_hot_path_no_alloc;
        ] );
      ("series", [ Alcotest.test_case "basics" `Quick test_series_basics ]);
      ("sampler", [ Alcotest.test_case "ticks" `Quick test_sampler ]);
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
        ] );
      ( "reader",
        [
          Alcotest.test_case "basics" `Quick test_reader_basics;
          Alcotest.test_case "long line" `Quick test_reader_long_line;
          Alcotest.test_case "truncated tail" `Quick
            test_reader_truncated_tail;
          Alcotest.test_case "crlf" `Quick test_reader_crlf;
          Alcotest.test_case "of_channel" `Quick test_reader_of_channel;
          Alcotest.test_case "matches in-memory parser" `Quick
            test_reader_matches_parse;
        ] );
      ( "export",
        [
          Alcotest.test_case "sample round trip" `Quick
            test_export_sample_round_trip;
          Alcotest.test_case "ndjson and csv" `Quick test_export_ndjson_and_csv;
          Alcotest.test_case "non-finite round trip" `Quick
            test_export_nonfinite_round_trip;
          Alcotest.test_case "empty series" `Quick test_export_empty_series;
        ] );
      ( "sink",
        [
          Alcotest.test_case "counter tap + filter + fan out" `Quick
            test_sink_counter_tap_and_filter;
          Alcotest.test_case "ndjson stream" `Quick test_sink_ndjson_stream;
        ] );
      ( "observer",
        [
          Alcotest.test_case "install once" `Quick test_observer_install_once;
          Alcotest.test_case "instrumented protocol run" `Quick
            test_protocol_instrumented_run;
          Alcotest.test_case "endpoint metrics in flow order" `Quick
            test_endpoint_metric_order;
        ] );
      ( "instrumentation",
        [ Alcotest.test_case "faults and overload pinned" `Quick
            test_instrumentation_pinned;
          Alcotest.test_case "baselines with an outage pinned" `Quick
            test_baselines_pinned ] );
    ]
