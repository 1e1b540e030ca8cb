type t = {
  strategy : string;
  warmup : float;
  duration : float;
  arrivals : int;
  rejected : int;
  completions : int;
  offered_bits : float;
  delivered_bits : float;
  throughput : float;
  mean_fct : float;
  p95_fct : float;
  mean_active : float;
  mean_stretch : float;
  stretch_samples : Sim.Stats.Samples.t;
  detoured_fraction : float;
}

let pp_table ppf rows =
  Format.fprintf ppf "%-6s %10s %10s %10s %9s %9s %9s@." "strat" "thruput"
    "mean_fct" "p95_fct" "stretch" "detour%" "done";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-6s %10.3f %9.3gs %9.3gs %9.3f %9.1f %9d@."
        r.strategy r.throughput r.mean_fct r.p95_fct r.mean_stretch
        (100. *. r.detoured_fraction)
        r.completions)
    rows
