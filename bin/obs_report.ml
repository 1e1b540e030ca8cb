(* CLI: ASCII report over telemetry NDJSON.

     dune exec bin/inrpp_probe.exe -- --scenario backpressure -o run.ndjson
     dune exec bin/obs_report.exe -- run.ndjson

     dune exec bench/main.exe -- protocols --sidecar runs.ndjson
     dune exec bin/obs_report.exe -- runs.ndjson

   Reads `inrpp_probe` output (trace events + sampled series + final
   metric snapshot) or `bench/main --sidecar` run records — both can
   even be concatenated into one file — and renders:

   - per-interface phase occupancy (share of run time each interface
     spent in push-data / detour / backpressure, from the final
     `iface_phase_occupancy` samples);
   - a custody timeline per node (the `custody_bits` series bucketed
     into a fixed-width sparkline) plus a peak-custody bar chart;
   - the per-chunk critical-path breakdown reconstructed from
     lifecycle trace events (inrpp_probe --spans output);
   - a flow-state summary (live/peak flow-table entries, recycled
     entries, table bytes per entry) from the router_flow_* gauges;
   - the engine profile table when the stream carries a profile
     object (inrpp_probe --profile), plus the sampler's own overhead;
   - a result table for any sidecar run records present.

   Unrecognised lines are counted and ignored, so the tool keeps
   working when new row types appear upstream.  A missing input file
   exits 2; --check exits 1 when no recognised telemetry was found
   (the CI smoke gate); --perfetto-check FILE validates a Chrome
   trace-event export instead of / in addition to the report. *)

(* the phase columns, labelled as the iface_phase_occupancy series
   label them *)
let phases =
  List.map Chunksim.Trace.phase_name [ Push_data; Detour; Backpressure ]

type iface_occ = {
  node : string;
  link : string;
  mutable t_last : float;
  occ : (string, float) Hashtbl.t; (* phase -> final share *)
}

type custody = {
  cnode : string;
  mutable samples : (float * float) list; (* (t, bits), newest first *)
  mutable peak : float;
}

type sidecar = {
  experiment : string;
  protocol : string;
  flows : int;
  completed : int;
  mean_fct : float;
  goodput : float;
  jain : float;
}

let num j f = Option.bind (Obs.Json.member f j) Obs.Json.to_float
let str j f = Option.bind (Obs.Json.member f j) Obs.Json.to_str

(* ------------------------------------------------------------------ *)
(* Line classification *)

type acc = {
  ifaces : (string * string, iface_occ) Hashtbl.t;
  nodes : (string, custody) Hashtbl.t;
  span : Obs.Span.t;
  mutable runs : sidecar list; (* newest first *)
  mutable profile : Obs.Profile.row list option;
  mutable sampler_ticks : float option;
  mutable sampler_probe_s : float option;
  mutable flight_dumps : int;
  (* overload-control counters: per-node shed / refused-detour totals
     and the collapse-watchdog summary metrics *)
  mutable shed : (string * float) list;
  mutable detours_refused : (string * float) list;
  (* flow-table occupancy gauges (per node, final snapshot) *)
  mutable flow_live : (string * float) list;
  mutable flow_peak : (string * float) list;
  mutable flow_recycled : (string * float) list;
  mutable flow_bytes : (string * float) list;
  mutable wd_episodes : float option;
  mutable wd_in_collapse : float option;
  mutable wd_recovery_s : float option;
  mutable wd_peak : float option;
  mutable events : int;
  mutable metrics : int;
  mutable skipped : int;
}

let on_sample acc (series, labels, t, v) =
  let label k = List.assoc_opt k labels in
  match series with
  | "iface_phase_occupancy" -> (
    match (label "node", label "link", label "phase") with
    | Some node, Some link, Some phase ->
      let key = (node, link) in
      let io =
        match Hashtbl.find_opt acc.ifaces key with
        | Some io -> io
        | None ->
          let io = { node; link; t_last = -1.; occ = Hashtbl.create 4 } in
          Hashtbl.add acc.ifaces key io;
          io
      in
      (* keep the newest sample per phase: occupancy is cumulative *)
      if t >= io.t_last then begin
        io.t_last <- t;
        Hashtbl.replace io.occ phase v
      end
    | _ -> acc.skipped <- acc.skipped + 1)
  | "custody_bits" -> (
    match label "node" with
    | Some node ->
      let c =
        match Hashtbl.find_opt acc.nodes node with
        | Some c -> c
        | None ->
          let c = { cnode = node; samples = []; peak = 0. } in
          Hashtbl.add acc.nodes node c;
          c
      in
      c.samples <- (t, v) :: c.samples;
      if v > c.peak then c.peak <- v
    | None -> acc.skipped <- acc.skipped + 1)
  | _ -> ()

let on_sidecar acc j =
  match
    ( str j "experiment", str j "protocol", num j "flows", num j "completed",
      num j "mean_fct", num j "goodput", num j "jain" )
  with
  | ( Some experiment, Some protocol, Some flows, Some completed,
      Some mean_fct, Some goodput, Some jain ) ->
    acc.runs <-
      { experiment; protocol; flows = int_of_float flows;
        completed = int_of_float completed; mean_fct; goodput; jain }
      :: acc.runs
  | _ -> acc.skipped <- acc.skipped + 1

let on_metric acc (s : Obs.Metric.sample) =
  acc.metrics <- acc.metrics + 1;
  let node () =
    Option.value (List.assoc_opt "node" s.Obs.Metric.labels) ~default:"?"
  in
  let value =
    match s.Obs.Metric.value with
    | Obs.Metric.Counter_v n -> Some (float_of_int n)
    | Obs.Metric.Gauge_v v -> Some v
    | Obs.Metric.Histogram_v _ -> None
  in
  match (s.Obs.Metric.name, value) with
  | "sampler_ticks_total", Some v -> acc.sampler_ticks <- Some v
  | "sampler_probe_seconds_total", Some v -> acc.sampler_probe_s <- Some v
  | "router_shed_total", Some v -> acc.shed <- (node (), v) :: acc.shed
  | "router_detours_refused_total", Some v ->
    acc.detours_refused <- (node (), v) :: acc.detours_refused
  | "router_flow_entries_live", Some v ->
    acc.flow_live <- (node (), v) :: acc.flow_live
  | "router_flow_entries_peak", Some v ->
    acc.flow_peak <- (node (), v) :: acc.flow_peak
  | "router_flow_entries_recycled_total", Some v ->
    acc.flow_recycled <- (node (), v) :: acc.flow_recycled
  | "router_flow_table_bytes", Some v ->
    acc.flow_bytes <- (node (), v) :: acc.flow_bytes
  | "watchdog_collapse_episodes", Some v -> acc.wd_episodes <- Some v
  | "watchdog_in_collapse", Some v -> acc.wd_in_collapse <- Some v
  | "watchdog_recovery_seconds_total", Some v -> acc.wd_recovery_s <- Some v
  | "watchdog_goodput_peak_bps", Some v -> acc.wd_peak <- Some v
  | _ -> ()

let on_line acc line =
  if String.trim line <> "" then
    match Obs.Json.parse line with
    | Error _ -> acc.skipped <- acc.skipped + 1
    | Ok j -> (
      (* a row its library decoder refuses is an "other" line *)
      let decoded of_json on_row =
        match of_json j with
        | Ok row -> on_row acc row
        | Error _ -> acc.skipped <- acc.skipped + 1
      in
      match str j "type" with
      | Some "sample" -> decoded Obs.Export.point_of_json on_sample
      | Some "event" -> (
        acc.events <- acc.events + 1;
        (* lifecycle events rebuild the span collector; kinds this
           binary predates are simply not span-relevant *)
        match Obs.Trace_codec.of_json j with
        | Ok (time, e) -> Obs.Span.add acc.span ~time e
        | Error _ -> ())
      | Some "metric" -> decoded Obs.Export.sample_of_json on_metric
      | Some "profile" ->
        decoded Obs.Profile.of_json (fun acc rows -> acc.profile <- Some rows)
      | Some "flight_dump" -> acc.flight_dumps <- acc.flight_dumps + 1
      | Some _ -> acc.skipped <- acc.skipped + 1
      | None ->
        (* sidecar run records carry no "type" field *)
        if Obs.Json.member "experiment" j <> None then on_sidecar acc j
        else acc.skipped <- acc.skipped + 1)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let sorted_values tbl cmp =
  List.sort cmp (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

let phase_table ppf acc =
  let ifaces =
    sorted_values acc.ifaces (fun a b ->
        match compare (int_of_string_opt a.node) (int_of_string_opt b.node) with
        | 0 -> compare (int_of_string_opt a.link) (int_of_string_opt b.link)
        | c -> c)
  in
  if ifaces <> [] then begin
    Format.fprintf ppf "Phase occupancy (share of run time)@.@.";
    let rows =
      List.map
        (fun io ->
          (io.node ^ "/" ^ io.link)
          :: List.map
               (fun p ->
                 match Hashtbl.find_opt io.occ p with
                 | Some v -> Metrics.Report.percent v
                 | None -> "-")
               phases)
        ifaces
    in
    Metrics.Report.table ~header:("node/link" :: phases) rows ppf ();
    Format.fprintf ppf "@."
  end

let spark_glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |]

(* bucket a (t, v) series into [width] mean values and render each as
   one glyph scaled against [vmax] *)
let sparkline ~width ~vmax samples =
  match samples with
  | [] -> String.make width ' '
  | (t0, _) :: _ ->
    let tn = List.fold_left (fun _ (t, _) -> t) t0 samples in
    let span = tn -. t0 in
    let sum = Array.make width 0. and n = Array.make width 0 in
    List.iter
      (fun (t, v) ->
        let b =
          if span <= 0. then 0
          else min (width - 1) (int_of_float ((t -. t0) /. span *. float_of_int width))
        in
        sum.(b) <- sum.(b) +. v;
        n.(b) <- n.(b) + 1)
      samples;
    String.init width (fun b ->
        if n.(b) = 0 || vmax <= 0. then ' '
        else
          let mean = sum.(b) /. float_of_int n.(b) in
          let g =
            int_of_float (mean /. vmax *. float_of_int (Array.length spark_glyphs - 1) +. 0.5)
          in
          spark_glyphs.(max 0 (min (Array.length spark_glyphs - 1) g)))

let custody_report ppf acc =
  let nodes =
    sorted_values acc.nodes (fun a b ->
        compare (int_of_string_opt a.cnode) (int_of_string_opt b.cnode))
  in
  let active = List.filter (fun c -> c.peak > 0.) nodes in
  if nodes <> [] then begin
    let vmax = List.fold_left (fun m c -> Float.max m c.peak) 0. nodes in
    let width = 60 in
    Format.fprintf ppf "Custody timeline (bits in custody, %d buckets, max %.0f)@.@."
      width vmax;
    List.iter
      (fun c ->
        Format.fprintf ppf "  node %-4s |%s|@." c.cnode
          (sparkline ~width ~vmax (List.rev c.samples)))
      (if active = [] then nodes else active);
    Format.fprintf ppf "@.";
    if active <> [] then begin
      Metrics.Report.bar_chart ~header:"Peak custody (bits) per node"
        (List.map (fun c -> ("node " ^ c.cnode, c.peak)) active)
        ppf ();
      Format.fprintf ppf "@."
    end
  end

let sidecar_table ppf acc =
  match List.rev acc.runs with
  | [] -> ()
  | runs ->
    Format.fprintf ppf "Run records@.@.";
    let rows =
      List.map
        (fun r ->
          [
            r.experiment; r.protocol;
            Printf.sprintf "%d/%d" r.completed r.flows;
            Printf.sprintf "%.3f" r.mean_fct;
            Printf.sprintf "%.2f" (r.goodput /. 1e6);
            Printf.sprintf "%.3f" r.jain;
          ])
        runs
    in
    Metrics.Report.table
      ~header:[ "experiment"; "protocol"; "done"; "mean fct (s)";
                "goodput (Mbps)"; "jain" ]
      rows ppf ();
    Format.fprintf ppf "@."

(* Overload-control section: only rendered when the stream came from
   a run with the overload layer on (the metrics are absent
   otherwise). *)
let overload_report ppf acc =
  let total = List.fold_left (fun a (_, v) -> a +. v) 0. in
  let have_counters = acc.shed <> [] || acc.detours_refused <> [] in
  let have_watchdog = acc.wd_episodes <> None in
  if have_counters || have_watchdog then begin
    Format.fprintf ppf "Overload control@.@.";
    if have_counters then begin
      Format.fprintf ppf
        "  %.0f custody admission(s) shed, %.0f detour(s) refused@."
        (total acc.shed) (total acc.detours_refused);
      let hot =
        List.filter (fun (_, v) -> v > 0.) (List.rev acc.shed)
      in
      if hot <> [] then
        Metrics.Report.bar_chart ~header:"  Shed per node"
          (List.map (fun (n, v) -> ("node " ^ n, v)) hot)
          ppf ()
    end;
    (match (acc.wd_episodes, acc.wd_in_collapse) with
    | Some eps, in_c ->
      Format.fprintf ppf
        "  watchdog: %.0f collapse episode(s)%s, recovery time %s, peak \
         goodput %s@."
        eps
        (match in_c with
        | Some v when v > 0. -> " (still collapsed at end of run)"
        | _ -> "")
        (match acc.wd_recovery_s with
        | Some s when s > 0. -> Printf.sprintf "%.3fs" s
        | _ -> "-")
        (match acc.wd_peak with
        | Some p -> Printf.sprintf "%.3g bps" p
        | None -> "-")
    | None, _ -> ());
    Format.fprintf ppf "@."
  end

(* Flow-state section: the router_flow_* gauges sampled at the end of
   the run.  bytes/entry is reported against the peak occupancy — the
   struct-of-arrays tables size themselves to the high-water mark, so
   that ratio is the steady per-flow memory cost. *)
let flow_report ppf acc =
  let total = List.fold_left (fun a (_, v) -> a +. v) 0. in
  if acc.flow_peak <> [] || acc.flow_live <> [] then begin
    Format.fprintf ppf "Flow state@.@.";
    let live = total acc.flow_live and peak = total acc.flow_peak in
    let recycled = total acc.flow_recycled
    and bytes = total acc.flow_bytes in
    Format.fprintf ppf
      "  %.0f live flow entr%s (peak %.0f), %.0f recycled, table %.0f B%s@."
      live
      (if live = 1. then "y" else "ies")
      peak recycled bytes
      (if peak > 0. then
         Printf.sprintf " (%.1f B/entry at peak)" (bytes /. peak)
       else "");
    let hot = List.filter (fun (_, v) -> v > 0.) (List.rev acc.flow_peak) in
    if hot <> [] then
      Metrics.Report.bar_chart ~header:"  Peak flow entries per node"
        (List.map (fun (n, v) -> ("node " ^ n, v)) hot)
        ppf ();
    Format.fprintf ppf "@."
  end

(* only when some chunk crossed a hop or was delivered: a stream with
   custody events alone has no path to report *)
let span_report ppf acc =
  if
    List.exists
      (fun (b : Obs.Span.breakdown) -> b.hops > 0 || b.delivered)
      (Obs.Span.breakdowns acc.span)
  then begin
    Format.fprintf ppf "Chunk critical path@.@.";
    Obs.Span.report ppf acc.span;
    Format.fprintf ppf "@."
  end

let profile_report ppf acc =
  (match acc.profile with
  | Some rows ->
    Format.fprintf ppf "Engine profile@.@.";
    Obs.Profile.report ppf rows;
    Format.fprintf ppf "@."
  | None -> ());
  match (acc.sampler_ticks, acc.sampler_probe_s) with
  | Some ticks, Some s ->
    Format.fprintf ppf "sampler overhead: %.0f ticks, %.6fs probing@." ticks s
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Perfetto / Chrome trace-event schema validation (--perfetto-check) *)

let known_phs = [ "M"; "X"; "B"; "E"; "s"; "t"; "f"; "i"; "C" ]

let validate_event i j errs =
  let fail msg = errs := Printf.sprintf "traceEvents[%d]: %s" i msg :: !errs in
  match str j "ph" with
  | None -> fail "missing ph"
  | Some ph when not (List.mem ph known_phs) ->
    fail (Printf.sprintf "unknown ph %S" ph)
  | Some ph ->
    let need_num f =
      match Obs.Json.member f j with
      | Some (Obs.Json.Num _) -> ()
      | Some _ -> fail (Printf.sprintf "field %S is not a number" f)
      | None -> fail (Printf.sprintf "missing field %S" f)
    in
    let need_str f =
      match Obs.Json.member f j with
      | Some (Obs.Json.Str _) -> ()
      | _ -> fail (Printf.sprintf "missing string field %S" f)
    in
    (match ph with
    | "M" -> need_str "name"
    | "X" ->
      need_str "name"; need_num "pid"; need_num "tid"; need_num "ts";
      need_num "dur"
    | "s" | "t" | "f" ->
      need_num "id"; need_num "pid"; need_num "tid"; need_num "ts"
    | "i" -> need_str "name"; need_num "ts"
    | _ -> ())

let perfetto_check path =
  let content =
    match open_in_bin path with
    | exception Sys_error msg ->
      Printf.eprintf "obs_report: %s\n" msg;
      exit 2
    | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
  in
  match Obs.Json.parse content with
  | Error msg ->
    Printf.eprintf "%s: not valid JSON: %s\n" path msg;
    exit 1
  | Ok j -> (
    match Obs.Json.member "traceEvents" j with
    | Some (Obs.Json.List evs) ->
      let errs = ref [] in
      List.iteri (fun i e -> validate_event i e errs) evs;
      let errs = List.rev !errs in
      if errs <> [] then begin
        Printf.eprintf "%s: %d schema error(s):\n" path (List.length errs);
        List.iteri
          (fun i e -> if i < 10 then Printf.eprintf "  %s\n" e)
          errs;
        exit 1
      end;
      let count ph =
        List.length
          (List.filter (fun e -> str e "ph" = Some ph) evs)
      in
      Printf.printf
        "%s: ok — %d trace events (%d slices, %d flow steps, %d instants)\n"
        path (List.length evs) (count "X")
        (count "s" + count "t" + count "f")
        (count "i")
    | _ ->
      Printf.eprintf "%s: missing traceEvents array\n" path;
      exit 1)

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: obs_report [--check] [--perfetto-check TRACE.json] [FILE|-]\n\
     \  FILE: NDJSON from inrpp_probe or bench --sidecar (default stdin)\n\
     \  --check: exit 1 unless recognised telemetry was found\n\
     \  --perfetto-check: validate a Chrome trace-event JSON export";
  exit 2

let () =
  let rec parse check pcheck file = function
    | [] -> (check, pcheck, file)
    | "--check" :: rest -> parse true pcheck file rest
    | "--perfetto-check" :: f :: rest -> parse check (Some f) file rest
    | [ "--perfetto-check" ] -> usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | f :: rest when file = None && (f = "-" || f.[0] <> '-') ->
      parse check pcheck (Some f) rest
    | _ -> usage ()
  in
  let check, pcheck, file =
    parse false None None (List.tl (Array.to_list Sys.argv))
  in
  (match pcheck with Some p -> perfetto_check p | None -> ());
  if pcheck <> None && file = None then exit 0;
  let input =
    match file with
    | None | Some "-" -> stdin
    | Some path -> (
      match open_in path with
      | ic -> ic
      | exception Sys_error msg ->
        Printf.eprintf "obs_report: %s\n" msg;
        exit 2)
  in
  let acc =
    { ifaces = Hashtbl.create 16; nodes = Hashtbl.create 16;
      span = Obs.Span.create (); runs = []; profile = None;
      sampler_ticks = None; sampler_probe_s = None; flight_dumps = 0;
      shed = []; detours_refused = [];
      flow_live = []; flow_peak = []; flow_recycled = []; flow_bytes = [];
      wd_episodes = None;
      wd_in_collapse = None; wd_recovery_s = None; wd_peak = None;
      events = 0; metrics = 0; skipped = 0 }
  in
  (try
     while true do
       on_line acc (input_line input)
     done
   with End_of_file -> ());
  if input != stdin then close_in input;
  let ppf = Format.std_formatter in
  phase_table ppf acc;
  custody_report ppf acc;
  overload_report ppf acc;
  flow_report ppf acc;
  span_report ppf acc;
  profile_report ppf acc;
  sidecar_table ppf acc;
  if acc.flight_dumps > 0 then
    Format.fprintf ppf "%d flight-recorder dump(s) in stream@."
      acc.flight_dumps;
  let recognised =
    Hashtbl.length acc.ifaces > 0
    || Hashtbl.length acc.nodes > 0
    || acc.runs <> []
    || Obs.Span.chunk_count acc.span > 0
    || acc.profile <> None
    || acc.events > 0 || acc.metrics > 0
  in
  if not recognised then Format.fprintf ppf "no recognised telemetry rows found@.";
  Format.fprintf ppf "(%d trace events, %d metrics, %d other lines)@."
    acc.events acc.metrics acc.skipped;
  if check && not recognised then exit 1
