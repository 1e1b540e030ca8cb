type labels = (string * string) list

type counter = { mutable count : int }

type histogram = {
  histo : Sim.Stats.Histogram.t;
  running : Sim.Stats.Running.t;
}

type instrument =
  | Counter of counter
  | Histogram of histogram
  | Callback of (unit -> float)

type entry = {
  e_name : string;
  e_labels : labels;
  instrument : instrument;
}

type t = {
  index : (string * labels, unit) Hashtbl.t;
  mutable entries : entry list;  (* reverse registration order *)
}

let create () = { index = Hashtbl.create 64; entries = [] }

let register t ~name ~labels instrument =
  let key = (name, labels) in
  if Hashtbl.mem t.index key then
    invalid_arg
      (Printf.sprintf "Metric.register: duplicate %s{%s}" name
         (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)));
  Hashtbl.add t.index key ();
  t.entries <- { e_name = name; e_labels = labels; instrument } :: t.entries

let counter t ?(labels = []) name =
  let c = { count = 0 } in
  register t ~name ~labels (Counter c);
  c

let histogram t ?(labels = []) ~lo ~hi ~bins name =
  let h =
    {
      histo = Sim.Stats.Histogram.create ~lo ~hi ~bins;
      running = Sim.Stats.Running.create ();
    }
  in
  register t ~name ~labels (Histogram h);
  h

let callback t ?(labels = []) name f = register t ~name ~labels (Callback f)

(* hot path *)
let incr c = c.count <- c.count + 1

let observe h v =
  Sim.Stats.Histogram.add h.histo v;
  Sim.Stats.Running.add h.running v

(* snapshot *)
type hist_summary = {
  count : int;
  sum : float;
  mean : float;
  min_v : float;
  max_v : float;
  buckets : (float * float * int) list;
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_summary

type sample = {
  name : string;
  labels : labels;
  value : value;
}

let summarise h =
  let edges = Sim.Stats.Histogram.bin_edges h.histo in
  let counts = Sim.Stats.Histogram.counts h.histo in
  let buckets =
    List.init (Array.length counts) (fun i ->
        (edges.(i), edges.(i + 1), counts.(i)))
  in
  {
    count = Sim.Stats.Running.count h.running;
    sum = Sim.Stats.Running.sum h.running;
    mean = Sim.Stats.Running.mean h.running;
    min_v = Sim.Stats.Running.min h.running;
    max_v = Sim.Stats.Running.max h.running;
    buckets;
  }

let snapshot t =
  List.rev_map
    (fun e ->
      let value =
        match e.instrument with
        | Counter c -> Counter_v c.count
        | Histogram h -> Histogram_v (summarise h)
        | Callback f -> Gauge_v (f ())
      in
      { name = e.e_name; labels = e.e_labels; value })
    t.entries
