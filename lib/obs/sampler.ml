type probe = {
  series : Series.t;
  read : unit -> float;
}

type t = {
  eng : Sim.Engine.t;
  s_interval : float;
  clock : (unit -> float) option;  (* wall clock for self-observation *)
  mutable probes : probe list;     (* reverse registration order *)
  mutable hooks : (unit -> unit) list;  (* reverse registration order *)
  mutable started : bool;
  mutable samples : int;
  mutable probe_s : float;         (* cumulative wall time in sample_now *)
}

let create ~eng ~interval ?clock () =
  if interval <= 0. || Float.is_nan interval then
    invalid_arg "Sampler.create: interval <= 0";
  { eng; s_interval = interval; clock; probes = []; hooks = [];
    started = false; samples = 0; probe_s = 0. }

let track t ?(labels = []) name read =
  let series = Series.create ~labels name in
  t.probes <- { series; read } :: t.probes;
  series

let on_sample t hook = t.hooks <- hook :: t.hooks

let track_shares t ?(labels = []) name ~key states state =
  let acc = Array.make (Array.length states) 0. in
  let last_t = ref (Sim.Engine.now t.eng) and last = ref (-1) in
  on_sample t (fun () ->
      let now = Sim.Engine.now t.eng in
      if !last >= 0 then acc.(!last) <- acc.(!last) +. (now -. !last_t);
      last_t := now;
      last := state ());
  Array.iteri
    (fun i s ->
      ignore
        (track t ~labels:((key, s) :: labels) name (fun () ->
             (* a loop, not a fold: the sum stays unboxed *)
             let tot = ref 0. in
             for j = 0 to Array.length acc - 1 do tot := !tot +. acc.(j) done;
             if !tot <= 0. then 0. else acc.(i) /. !tot)))
    states

let sample_now t =
  let now = Sim.Engine.now t.eng in
  let t0 = match t.clock with Some c -> c () | None -> 0. in
  List.iter (fun h -> h ()) (List.rev t.hooks);
  List.iter
    (fun p -> Series.add p.series ~time:now (p.read ()))
    (List.rev t.probes);
  (match t.clock with
  | Some c -> t.probe_s <- t.probe_s +. (c () -. t0)
  | None -> ());
  t.samples <- t.samples + 1

let start ?(stop = fun () -> false) t =
  if t.started then invalid_arg "Sampler.start: already started";
  t.started <- true;
  sample_now t;
  Sim.Engine.schedule_periodic t.eng ~interval:t.s_interval (fun () ->
      let continue = not (stop ()) in
      sample_now t;
      continue)

let series t = List.rev_map (fun p -> p.series) t.probes

let ticks t = t.samples
let probe_seconds t = t.probe_s
let self_observing t = t.clock <> None
