(* Tracing / profiling / flight-recorder subsystem: lifecycle-event
   codec laws, span collection and critical-path attribution, Perfetto
   export shape, the engine self-profiler, sampler self-observation,
   and the flight-recorder ring. *)

module T = Chunksim.Trace
module J = Obs.Json

(* a span collector fed [evs] through a trace, as a live run feeds it *)
let span_of_events evs =
  let sp = Obs.Span.create () and tr = T.create () in
  Obs.Sink.attach (Obs.Span.sink sp) tr;
  List.iter (fun (time, e) -> T.record tr ~time e) evs;
  sp

let check_close msg eps expected got =
  if Float.abs (expected -. got) > eps then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg expected got

(* ------------------------------------------------------------------ *)
(* Trace_codec laws for every event kind *)

let lifecycle_events =
  [
    T.Enqueued { node = 3; link = 7; flow = 1; idx = 42 };
    T.Tx_begin { link = 7; flow = 1; idx = 42 };
    T.Delivered { node = 9; flow = 1; idx = 42 };
    T.Retransmit { flow = 1; idx = 42 };
    T.Custody_evacuated { node = 3; flow = 1; idx = 42 };
    T.Custody_evicted { node = 3; flow = 1; idx = 42 };
  ]

let control_events =
  [
    T.Dropped { node = 3; link = -1; packet = T.Data; flow = 1; idx = 42 };
    T.Dropped { node = 3; link = 7; packet = T.Request; flow = 1; idx = 43 };
    T.Cached { node = 3; flow = 1; idx = 42 };
    T.Cache_hit { node = 3; flow = 1; idx = 42 };
    T.Custody_released { node = 3; flow = 1; idx = 42 };
    T.Detoured { node = 3; flow = 1; idx = 42; via = 5 };
    T.Phase_change { node = 3; link = 7; phase = T.Push_data };
    T.Phase_change { node = 3; link = 7; phase = T.Detour };
    T.Phase_change { node = 3; link = 7; phase = T.Backpressure };
    T.Bp_signal { node = 3; flow = 1; engage = true };
    T.Flow_complete { flow = 1; fct = 0.75 };
    T.Link_fault { link = 7; up = false };
    T.Node_fault { node = 3; up = true };
  ]

let round_trip ~time e =
  (* full text path: print, reparse, decode *)
  match
    Result.bind
      (J.parse (J.to_string (Obs.Trace_codec.to_json ~time e)))
      Obs.Trace_codec.of_json
  with
  | Ok te -> te
  | Error err ->
    Alcotest.failf "%s failed to round-trip: %s" (Obs.Trace_codec.kind e) err

let test_codec_round_trip events () =
  List.iter
    (fun e ->
      let t', e' = round_trip ~time:1.25 e in
      check_close (Obs.Trace_codec.kind e ^ " time") 0. 1.25 t';
      if e' <> e then
        Alcotest.failf "%s changed in round trip" (Obs.Trace_codec.kind e))
    events

(* NDJSON read back from disk is untyped input: a phase the machine
   does not have is refused, not decoded *)
let test_codec_unknown_phase () =
  let line =
    {|{"type":"event","t":1,"kind":"phase_change","node":3,"link":7,"phase":"warp-drive"}|}
  in
  match Result.bind (J.parse line) Obs.Trace_codec.of_json with
  | Error e ->
    Alcotest.(check string) "refused" {|event: unknown phase "warp-drive"|} e
  | Ok _ -> Alcotest.fail "an unknown phase decoded"

(* a drop names a packet kind the router drops, data or request *)
let test_codec_unknown_packet () =
  let line =
    {|{"type":"event","t":1,"kind":"dropped","node":3,"link":-1,"packet":"backpressure","flow":1,"idx":0}|}
  in
  match Result.bind (J.parse line) Obs.Trace_codec.of_json with
  | Error e ->
    Alcotest.(check string) "refused" {|event: unknown packet "backpressure"|} e
  | Ok _ -> Alcotest.fail "an unknown packet kind decoded"

let test_codec_nan_time () =
  (* NaN has no JSON literal: the printer writes null, the decoder
     restores NaN, so a NaN-timestamped event survives the text path *)
  List.iter
    (fun e ->
      let text = J.to_string (Obs.Trace_codec.to_json ~time:Float.nan e) in
      Alcotest.(check bool)
        (Obs.Trace_codec.kind e ^ " NaN prints as null")
        true
        (match J.parse text with
        | Ok j -> J.member "t" j = Some J.Null
        | Error _ -> false);
      let t', e' = round_trip ~time:Float.nan e in
      Alcotest.(check bool)
        (Obs.Trace_codec.kind e ^ " NaN time restored")
        true (Float.is_nan t');
      if e' <> e then
        Alcotest.failf "%s changed under NaN time" (Obs.Trace_codec.kind e))
    (lifecycle_events @ control_events)

let test_codec_long_line () =
  (* one event line well past 64 KiB must decode: JSON lets a writer
     put any whitespace between fields *)
  let e = T.Dropped { node = 1; link = 2; packet = T.Data; flow = 3; idx = 4 } in
  let text = J.to_string (Obs.Trace_codec.to_json ~time:0.5 e) in
  let pad = String.make 100_000 ' ' in
  let text =
    String.concat ("," ^ pad) (String.split_on_char ',' text)
  in
  Alcotest.(check bool) "line longer than 64 KiB" true
    (String.length text > 65_536);
  match Result.bind (J.parse text) Obs.Trace_codec.of_json with
  | Ok (t', e') ->
    check_close "time" 0. 0.5 t';
    if e' <> e then Alcotest.fail "long event changed in decoding"
  | Error msg -> Alcotest.failf "long line failed to decode: %s" msg

let chunk_timeline =
  [
    (0.0, T.Enqueued { node = 0; link = 0; flow = 1; idx = 2 });
    (1.0, T.Tx_begin { link = 0; flow = 1; idx = 2 });
    (3.0, T.Cached { node = 1; flow = 1; idx = 2 });
    (6.0, T.Custody_released { node = 1; flow = 1; idx = 2 });
    (6.0, T.Enqueued { node = 1; link = 1; flow = 1; idx = 2 });
    (7.0, T.Tx_begin { link = 1; flow = 1; idx = 2 });
    (7.5, T.Delivered { node = 2; flow = 1; idx = 2 });
  ]

let test_span_attribution () =
  let s = span_of_events chunk_timeline in
  Alcotest.(check int) "one chunk" 1 (Obs.Span.chunk_count s);
  Alcotest.(check int) "events counted" (List.length chunk_timeline)
    (Obs.Span.event_count s);
  match Obs.Span.breakdowns s with
  | [ b ] ->
    Alcotest.(check int) "flow" 1 b.Obs.Span.flow;
    Alcotest.(check int) "idx" 2 b.Obs.Span.idx;
    check_close "queue: two waits" 1e-9 2.0 b.Obs.Span.queue_s;
    check_close "wire: two transmissions" 1e-9 2.5 b.Obs.Span.wire_s;
    check_close "custody: one hold" 1e-9 3.0 b.Obs.Span.custody_s;
    check_close "other: nothing unexplained" 1e-9 0. b.Obs.Span.other_s;
    Alcotest.(check int) "hops" 2 b.Obs.Span.hops;
    Alcotest.(check int) "no detours" 0 b.Obs.Span.detours;
    Alcotest.(check int) "no retransmits" 0 b.Obs.Span.retransmits;
    Alcotest.(check bool) "delivered" true b.Obs.Span.delivered;
    (* the invariant the attribution scheme guarantees: stages sum
       exactly to the chunk's elapsed time *)
    check_close "stages sum to elapsed" 1e-9
      (b.Obs.Span.last_t -. b.Obs.Span.first_t)
      (b.Obs.Span.queue_s +. b.Obs.Span.wire_s +. b.Obs.Span.custody_s
     +. b.Obs.Span.other_s)
  | bs -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bs)

let test_span_nan_timestamps () =
  (* a NaN-timestamped event (e.g. decoded from a truncated line)
     sorts last and contributes zero width — the finite stages are
     unchanged *)
  let s =
    span_of_events
      (chunk_timeline @ [ (Float.nan, T.Retransmit { flow = 1; idx = 2 }) ])
  in
  match Obs.Span.breakdowns s with
  | [ b ] ->
    check_close "queue unchanged" 1e-9 2.0 b.Obs.Span.queue_s;
    check_close "wire unchanged" 1e-9 2.5 b.Obs.Span.wire_s;
    check_close "custody unchanged" 1e-9 3.0 b.Obs.Span.custody_s;
    check_close "other unchanged" 1e-9 0. b.Obs.Span.other_s;
    Alcotest.(check bool) "last_t stays finite" true
      (Float.is_finite b.Obs.Span.last_t);
    Alcotest.(check int) "retransmit still counted" 1 b.Obs.Span.retransmits
  | bs -> Alcotest.failf "expected 1 breakdown, got %d" (List.length bs)

let test_span_out_of_order_insert () =
  (* the lazy virtual transmitter records Tx_begin with start times in
     the past: attribution must sort by timestamp, not arrival order *)
  let shuffled =
    [
      List.nth chunk_timeline 2; List.nth chunk_timeline 0;
      List.nth chunk_timeline 5; List.nth chunk_timeline 1;
      List.nth chunk_timeline 6; List.nth chunk_timeline 3;
      List.nth chunk_timeline 4;
    ]
  in
  let a = Obs.Span.breakdowns (span_of_events chunk_timeline) in
  let b = Obs.Span.breakdowns (span_of_events shuffled) in
  match (a, b) with
  | [ a ], [ b ] ->
    check_close "queue order-independent" 1e-9 a.Obs.Span.queue_s
      b.Obs.Span.queue_s;
    check_close "wire order-independent" 1e-9 a.Obs.Span.wire_s
      b.Obs.Span.wire_s;
    check_close "custody order-independent" 1e-9 a.Obs.Span.custody_s
      b.Obs.Span.custody_s
  | _ -> Alcotest.fail "expected one breakdown from each collector"

let test_span_report_renders () =
  let s = span_of_events chunk_timeline in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Obs.Span.report ppf s;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary line" true
    (contains "Critical path over 1 chunks");
  Alcotest.(check bool) "chunk row" true (contains "f1   #2");
  (* empty collector degrades to a hint, not an empty table *)
  Buffer.clear buf;
  Obs.Span.report ppf (Obs.Span.create ());
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "empty hint" true
    (Buffer.contents buf = "no chunk lifecycle events (span tracing off?)\n")

(* ------------------------------------------------------------------ *)
(* Perfetto export *)

let test_perfetto_export_shape () =
  let s = span_of_events chunk_timeline in
  Obs.Span.add s ~time:2.0
    (T.Phase_change { node = 1; link = 0; phase = T.Backpressure });
  let buf = Buffer.create 1024 in
  Obs.Span.to_perfetto buf s;
  match J.parse (Buffer.contents buf) with
  | Error e -> Alcotest.failf "perfetto output is not JSON: %s" e
  | Ok j ->
    let events =
      match J.member "traceEvents" j with
      | Some (J.List l) -> l
      | _ -> Alcotest.fail "missing traceEvents list"
    in
    let ph e =
      match J.member "ph" e with
      | Some (J.Str s) -> s
      | _ -> Alcotest.fail "event without ph"
    in
    let count p = List.length (List.filter (fun e -> ph e = p) events) in
    (* track metadata: 1 flow x (1 process + 3 threads) *)
    Alcotest.(check int) "metadata records" 4 (count "M");
    (* flow-arrow chain: one start, one finish, the rest steps *)
    Alcotest.(check int) "chain start" 1 (count "s");
    Alcotest.(check int) "chain finish" 1 (count "f");
    Alcotest.(check int) "chain steps" 5 (count "t");
    (* stage slices: the 6.0 -> 6.0 release/enqueue pair is zero-width
       and skipped, leaving 5 non-degenerate intervals *)
    Alcotest.(check int) "complete slices" 5 (count "X");
    (* the Phase_change global annotation lands as an instant *)
    Alcotest.(check bool) "global instant" true (count "i" >= 1);
    (* every slice is well-formed enough for the Perfetto importer *)
    List.iter
      (fun e ->
        if ph e = "X" then begin
          (match J.member "ts" e with
          | Some (J.Num ts) ->
            Alcotest.(check bool) "ts in microseconds" true
              (ts >= 0. && ts <= 7.5e6)
          | _ -> Alcotest.fail "slice without numeric ts");
          match J.member "dur" e with
          | Some (J.Num d) ->
            Alcotest.(check bool) "positive duration" true (d > 0.)
          | _ -> Alcotest.fail "slice without numeric dur"
        end)
      events;
    (* causal links all reference the packed chunk key *)
    let key =
      float_of_int (Chunksim.Chunk_key.pack ~flow:1 ~idx:2)
    in
    List.iter
      (fun e ->
        if ph e = "s" || ph e = "t" || ph e = "f" then
          match J.member "id" e with
          | Some (J.Num id) -> check_close "flow-arrow id" 0. key id
          | _ -> Alcotest.fail "flow event without id")
      events

(* ------------------------------------------------------------------ *)
(* Profile rows: engine attribution + JSON round-trip *)

let test_engine_profiler_attribution () =
  let eng = Sim.Engine.create () in
  (* deterministic fake clock: one tick per read *)
  let now = ref 0. in
  let clock () =
    now := !now +. 0.001;
    !now
  in
  let k_a = Sim.Engine.profile_kind eng "alpha" in
  let k_b = Sim.Engine.profile_kind eng "beta" in
  Sim.Engine.profile_start ~clock eng;
  Alcotest.(check bool) "profiling on" true (Sim.Engine.profiling eng);
  for i = 1 to 3 do
    ignore
      (Sim.Engine.schedule eng
         ~delay:(float_of_int i)
         (fun () -> Sim.Engine.profile_mark eng k_a))
  done;
  ignore
    (Sim.Engine.schedule eng ~delay:10. (fun () ->
         Sim.Engine.profile_mark eng k_b));
  ignore (Sim.Engine.schedule eng ~delay:11. (fun () -> ()));
  Sim.Engine.run eng;
  Sim.Engine.profile_stop eng;
  Alcotest.(check bool) "profiling off" false (Sim.Engine.profiling eng);
  let rows = Sim.Engine.profile_rows eng in
  let find k =
    match List.find_opt (fun (name, _, _, _) -> name = k) rows with
    | Some r -> r
    | None -> Alcotest.failf "missing profile row %s" k
  in
  let _, na, wa, _ = find "alpha" in
  let _, nb, _, _ = find "beta" in
  let _, no, _, _ = find "other" in
  Alcotest.(check int) "alpha events" 3 na;
  Alcotest.(check int) "beta events" 1 nb;
  Alcotest.(check int) "unmarked handler lands in other" 1 no;
  Alcotest.(check bool) "alpha wall-clock accumulated" true (wa > 0.);
  let total = List.fold_left (fun acc (_, n, _, _) -> acc + n) 0 rows in
  Alcotest.(check int) "every event attributed exactly once"
    (Sim.Engine.events_handled eng) total

let test_profile_json_round_trip () =
  let rows =
    [ ("packet", 1376, 0.0006, 53_000.); ("tick", 1, 0.0037, 792_860.) ]
  in
  let j = Obs.Profile.to_json rows in
  (match J.member "schema" j with
  | Some (J.Str s) -> Alcotest.(check string) "schema" "inrpp-profile/v1" s
  | _ -> Alcotest.fail "missing schema");
  (match Result.bind (J.parse (J.to_string j)) Obs.Profile.of_json with
  | Ok rows' ->
    (* to_json sorts by wall-clock descending *)
    Alcotest.(check bool) "rows round-trip (sorted by wall desc)" true
      (rows' = [ List.nth rows 1; List.nth rows 0 ])
  | Error e -> Alcotest.failf "profile decode: %s" e);
  match Obs.Profile.of_json (J.Obj [ ("type", J.Str "profile") ]) with
  | Ok _ -> Alcotest.fail "decoder accepted a schema-less object"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Sampler self-observation *)

let test_sampler_self_observation () =
  let eng = Sim.Engine.create () in
  let now = ref 0. in
  let clock () =
    now := !now +. 0.002;
    !now
  in
  let smp = Obs.Sampler.create ~eng ~interval:0.1 ~clock () in
  Alcotest.(check bool) "self-observing with a clock" true
    (Obs.Sampler.self_observing smp);
  ignore (Obs.Sampler.track smp "x" (fun () -> 1.));
  Obs.Sampler.start smp;
  Sim.Engine.run ~until:0.55 eng;
  Alcotest.(check int) "ticks" 6 (Obs.Sampler.ticks smp);
  (* the fake clock advances 2 ms per read and sample_now reads it
     twice per tick, so cumulative probe time is exactly 6 x 2 ms *)
  check_close "probe seconds accumulate" 1e-9 0.012
    (Obs.Sampler.probe_seconds smp);
  let plain = Obs.Sampler.create ~eng ~interval:0.1 () in
  Alcotest.(check bool) "clockless sampler opts out" false
    (Obs.Sampler.self_observing plain);
  check_close "clockless probe time is zero" 0. 0.
    (Obs.Sampler.probe_seconds plain)

(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !lines

let with_tmp f =
  let path = Filename.temp_file "flight" ".ndjson" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_recorder_ring_and_dump () =
  with_tmp (fun path ->
      let rc = Obs.Recorder.create ~capacity:4 ~path () in
      for i = 0 to 9 do
        Obs.Recorder.record rc
          ~time:(float_of_int i)
          (T.Delivered { node = 0; flow = 0; idx = i })
      done;
      Alcotest.(check int) "all events seen" 10 (Obs.Recorder.seen rc);
      (* lazy open: nothing on disk until the first dump *)
      Alcotest.(check bool) "clean run leaves no artefact" false
        (Sys.file_exists path);
      Obs.Recorder.dump rc ~reason:"invariant: conservation" ~time:9.5;
      Alcotest.(check int) "dump recorded" 1 (Obs.Recorder.dumps rc);
      Obs.Recorder.close rc;
      Obs.Recorder.close rc;
      (* close is idempotent *)
      let lines = read_lines path in
      Alcotest.(check int) "header + ring" 5 (List.length lines);
      (match J.parse (List.hd lines) with
      | Ok j ->
        Alcotest.(check (option string)) "header type" (Some "flight_dump")
          (Option.bind (J.member "type" j) J.to_str);
        Alcotest.(check (option string)) "header reason"
          (Some "invariant: conservation")
          (Option.bind (J.member "reason" j) J.to_str);
        Alcotest.(check (option int)) "header count" (Some 4)
          (Option.bind (J.member "events" j) J.to_int)
      | Error e -> Alcotest.failf "header line: %s" e);
      List.iteri
        (fun i line ->
          match Result.bind (J.parse line) Obs.Trace_codec.of_json with
          | Ok (t, T.Delivered { idx; _ }) ->
            check_close "event time" 1e-9 (float_of_int (6 + i)) t;
            Alcotest.(check int) "event idx" (6 + i) idx
          | Ok _ -> Alcotest.failf "line %d decoded to the wrong event" i
          | Error e -> Alcotest.failf "line %d: %s" i e)
        (List.tl lines))

let test_recorder_dump_cap () =
  with_tmp (fun path ->
      let rc = Obs.Recorder.create ~capacity:2 ~max_dumps:2 ~path () in
      Obs.Recorder.record rc ~time:0. (T.Retransmit { flow = 0; idx = 0 });
      for i = 1 to 5 do
        Obs.Recorder.dump rc ~reason:"again" ~time:(float_of_int i)
      done;
      Alcotest.(check int) "dumps capped" 2 (Obs.Recorder.dumps rc);
      Obs.Recorder.close rc;
      let headers =
        List.filter
          (fun l ->
            match J.parse l with
            | Ok j -> J.member "type" j = Some (J.Str "flight_dump")
            | Error _ -> false)
          (read_lines path)
      in
      Alcotest.(check int) "only capped dumps on disk" 2 (List.length headers))

let test_recorder_on_invariant_violation () =
  (* the wiring instrumentation.ml uses: a checker violation triggers a dump *)
  with_tmp (fun path ->
      let rc = Obs.Recorder.create ~path () in
      Obs.Recorder.record rc ~time:0.1
        (T.Cached { node = 1; flow = 0; idx = 0 });
      let chk = Check.Invariant.create () in
      Check.Invariant.on_violation chk (fun v ->
          Obs.Recorder.dump rc
            ~reason:("invariant: " ^ v.Check.Invariant.checker)
            ~time:v.Check.Invariant.time);
      Check.Invariant.violate chk ~checker:"conservation" ~time:0.2
        "chunk leaked";
      Alcotest.(check bool) "violation dumped the ring" true
        (Obs.Recorder.dumps rc = 1);
      Obs.Recorder.close rc;
      match read_lines path with
      | header :: _ ->
        Alcotest.(check (option string)) "reason names the checker"
          (Some "invariant: conservation")
          (Option.bind
             (Result.to_option (J.parse header))
             (fun j -> Option.bind (J.member "reason" j) J.to_str))
      | [] -> Alcotest.fail "no dump written")

(* ------------------------------------------------------------------ *)
(* End-to-end: spans + profiler through a protocol run *)

let backpressure_graph () =
  let b = Topology.Graph.Builder.create () in
  let n0 = Topology.Graph.Builder.add_node b "s" in
  let n1 = Topology.Graph.Builder.add_node b "r" in
  let n2 = Topology.Graph.Builder.add_node b "d" in
  Topology.Graph.Builder.add_edge b ~capacity:10e6 ~delay:2e-3 n0 n1;
  Topology.Graph.Builder.add_edge b ~capacity:2e6 ~delay:2e-3 n1 n2;
  Topology.Graph.Builder.build b

let bp_cfg =
  {
    Inrpp.Config.default with
    Inrpp.Config.anticipation = 512;
    cache_bits = 30. *. Inrpp.Config.default.Inrpp.Config.chunk_bits;
  }

let test_protocol_span_run () =
  let g = backpressure_graph () in
  let spans = Obs.Span.create () in
  let o = Obs.Observer.create ~spans () in
  let r =
    Inrpp.Protocol.run ~cfg:bp_cfg ~horizon:30. ~obs:o g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 150 ]
  in
  Alcotest.(check int) "flow completed" 1 r.Inrpp.Protocol.completed;
  Alcotest.(check int) "every chunk traced" 150 (Obs.Span.chunk_count spans);
  let bs = Obs.Span.breakdowns spans in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "chunk %d delivered" b.Obs.Span.idx)
        true b.Obs.Span.delivered;
      Alcotest.(check bool)
        (Printf.sprintf "chunk %d crossed two links" b.Obs.Span.idx)
        true
        (b.Obs.Span.hops >= 2);
      check_close
        (Printf.sprintf "chunk %d stages sum to elapsed" b.Obs.Span.idx)
        1e-6
        (b.Obs.Span.last_t -. b.Obs.Span.first_t)
        (b.Obs.Span.queue_s +. b.Obs.Span.wire_s +. b.Obs.Span.custody_s
       +. b.Obs.Span.other_s))
    bs;
  (* the tiny store forced custody: time must be attributed to it *)
  let custody_total =
    List.fold_left (fun acc b -> acc +. b.Obs.Span.custody_s) 0. bs
  in
  Alcotest.(check bool) "custody time attributed" true (custody_total > 0.);
  (* the export is valid JSON with the expected top-level shape *)
  let buf = Buffer.create 65536 in
  Obs.Span.to_perfetto buf spans;
  match J.parse (Buffer.contents buf) with
  | Ok j ->
    Alcotest.(check bool) "perfetto traceEvents non-empty" true
      (match J.member "traceEvents" j with
      | Some (J.List (_ :: _)) -> true
      | _ -> false)
  | Error e -> Alcotest.failf "perfetto export: %s" e

let test_protocol_span_run_deterministic_vs_plain () =
  (* span collection must observe, not perturb: the simulated outcome
     with tracing on is identical to the plain run *)
  let g = backpressure_graph () in
  let specs = [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 150 ] in
  let plain = Inrpp.Protocol.run ~cfg:bp_cfg ~horizon:30. g specs in
  let spans = Obs.Span.create () in
  let o = Obs.Observer.create ~spans () in
  let traced = Inrpp.Protocol.run ~cfg:bp_cfg ~horizon:30. ~obs:o g specs in
  Alcotest.(check (option (float 0.)))
    "fct identical" plain.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct
    traced.Inrpp.Protocol.flows.(0).Inrpp.Protocol.fct;
  Alcotest.(check int) "drops identical" plain.Inrpp.Protocol.total_drops
    traced.Inrpp.Protocol.total_drops;
  Alcotest.(check int) "forwarded identical" plain.Inrpp.Protocol.forwarded_data
    traced.Inrpp.Protocol.forwarded_data

let test_protocol_profile_run () =
  let g = backpressure_graph () in
  let now = ref 0. in
  let clock () =
    now := !now +. 1e-6;
    !now
  in
  let o = Obs.Observer.create ~profile:true ~clock () in
  let r =
    Inrpp.Protocol.run ~cfg:bp_cfg ~horizon:30. ~obs:o g
      [ Inrpp.Protocol.flow_spec ~src:0 ~dst:2 150 ]
  in
  Alcotest.(check int) "flow completed" 1 r.Inrpp.Protocol.completed;
  let rows = Obs.Observer.profile_rows o in
  Alcotest.(check bool) "profiler produced rows" true (rows <> []);
  let total = List.fold_left (fun acc (_, n, _, _) -> acc + n) 0 rows in
  Alcotest.(check int) "every engine event attributed"
    r.Inrpp.Protocol.engine_events total;
  Alcotest.(check bool) "packet kind attributed" true
    (List.exists (fun (k, n, _, _) -> k = "packet" && n > 0) rows)

let () =
  Alcotest.run "span"
    [
      ( "codec",
        [
          Alcotest.test_case "lifecycle round trip" `Quick
            (test_codec_round_trip lifecycle_events);
          Alcotest.test_case "control round trip" `Quick
            (test_codec_round_trip control_events);
          Alcotest.test_case "unknown phase" `Quick test_codec_unknown_phase;
          Alcotest.test_case "unknown packet" `Quick test_codec_unknown_packet;
          Alcotest.test_case "NaN time" `Quick test_codec_nan_time;
          Alcotest.test_case "long line" `Quick test_codec_long_line;
        ] );
      ( "span",
        [
          Alcotest.test_case "attribution" `Quick test_span_attribution;
          Alcotest.test_case "NaN timestamps" `Quick test_span_nan_timestamps;
          Alcotest.test_case "out-of-order insert" `Quick
            test_span_out_of_order_insert;
          Alcotest.test_case "report renders" `Quick test_span_report_renders;
          Alcotest.test_case "perfetto export" `Quick
            test_perfetto_export_shape;
        ] );
      ( "profile",
        [
          Alcotest.test_case "engine attribution" `Quick
            test_engine_profiler_attribution;
          Alcotest.test_case "json round trip" `Quick
            test_profile_json_round_trip;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "self-observation" `Quick
            test_sampler_self_observation;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring and dump" `Quick test_recorder_ring_and_dump;
          Alcotest.test_case "dump cap" `Quick test_recorder_dump_cap;
          Alcotest.test_case "invariant violation" `Quick
            test_recorder_on_invariant_violation;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "span run" `Quick test_protocol_span_run;
          Alcotest.test_case "tracing does not perturb" `Quick
            test_protocol_span_run_deterministic_vs_plain;
          Alcotest.test_case "profile run" `Quick test_protocol_profile_run;
        ] );
    ]
