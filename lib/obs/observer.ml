type t = {
  o_registry : Metric.t;
  mutable o_sinks : Sink.t list;
  sample_interval : float option;
  mutable o_sampler : Sampler.t option;
  o_spans : Span.t option;
  o_recorder : Recorder.t option;
  o_profile : bool;
  o_clock : (unit -> float) option;
  mutable o_profile_rows : Profile.row list;
}

let create ?sample_interval ?(sinks = []) ?spans ?recorder ?(profile = false)
    ?clock () =
  (match sample_interval with
  | Some i when i <= 0. || Float.is_nan i ->
    invalid_arg "Observer.create: sample_interval <= 0"
  | _ -> ());
  let sinks =
    sinks
    @ (match spans with Some sp -> [ Span.sink sp ] | None -> [])
    @ (match recorder with Some r -> [ Recorder.sink r ] | None -> [])
  in
  { o_registry = Metric.create (); o_sinks = sinks; sample_interval;
    o_sampler = None; o_spans = spans; o_recorder = recorder;
    o_profile = profile; o_clock = clock; o_profile_rows = [] }

let registry t = t.o_registry
let add_sink t s = t.o_sinks <- t.o_sinks @ [ s ]

let attach_trace t tr = List.iter (fun s -> Sink.attach s tr) t.o_sinks

let spans t = t.o_spans
let recorder t = t.o_recorder
let profile_requested t = t.o_profile
let clock t = t.o_clock
let set_profile_rows t rows = t.o_profile_rows <- rows
let profile_rows t = t.o_profile_rows

let install_sampler t ~eng ~default_interval =
  if t.o_sampler <> None then
    invalid_arg "Observer.install_sampler: sampler already installed";
  let interval = Option.value ~default:default_interval t.sample_interval in
  let s = Sampler.create ~eng ~interval ?clock:t.o_clock () in
  t.o_sampler <- Some s;
  s

let sampler t = t.o_sampler

let series t =
  match t.o_sampler with
  | None -> []
  | Some s -> Sampler.series s

let snapshot t = Metric.snapshot t.o_registry

let close t = List.iter Sink.close t.o_sinks
