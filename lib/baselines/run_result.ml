type t = {
  protocol : string;
  flows : int;
  completed : int;
  fcts : float option array;
  drops : int;
  retransmissions : int;
  goodput : float;
  sim_time : float;
  mean_fct : float;
  jain : float;
}

let make ~protocol ~fcts ~chunk_bits ~chunks ~drops ~retransmissions ~sim_time
    =
  let n = Array.length fcts in
  if Array.length chunks <> n then
    invalid_arg "Run_result.make: fcts/chunks length mismatch";
  let completed = ref 0 in
  let fct_sum = ref 0. in
  let delivered = ref 0. in
  let rates = Array.make n 0. in
  Array.iteri
    (fun i fct ->
      match fct with
      | Some v ->
        incr completed;
        fct_sum := !fct_sum +. v;
        let bits = float_of_int chunks.(i) *. chunk_bits in
        delivered := !delivered +. bits;
        if v > 0. then rates.(i) <- bits /. v
      | None -> ())
    fcts;
  {
    protocol;
    flows = n;
    completed = !completed;
    fcts;
    drops;
    retransmissions;
    goodput = (if sim_time > 0. then !delivered /. sim_time else 0.);
    sim_time;
    mean_fct =
      (if !completed > 0 then !fct_sum /. float_of_int !completed else 0.);
    jain = Metrics.Fairness.jain rates;
  }

let to_json r =
  Obs.Json.Obj
    [
      ("protocol", Obs.Json.Str r.protocol);
      ("flows", Obs.Json.Num (float_of_int r.flows));
      ("completed", Obs.Json.Num (float_of_int r.completed));
      ( "fcts",
        Obs.Json.List
          (Array.to_list
             (Array.map
                (function
                  | Some v -> Obs.Json.Num v
                  | None -> Obs.Json.Null)
                r.fcts)) );
      ("drops", Obs.Json.Num (float_of_int r.drops));
      ("retransmissions", Obs.Json.Num (float_of_int r.retransmissions));
      ("goodput", Obs.Json.Num r.goodput);
      ("sim_time", Obs.Json.Num r.sim_time);
      ("mean_fct", Obs.Json.Num r.mean_fct);
      ("jain", Obs.Json.Num r.jain);
    ]

let pp_table ppf rows =
  Format.fprintf ppf "%-8s %6s %10s %12s %7s %7s %7s@." "protocol" "done"
    "mean_fct" "goodput" "jain" "drops" "retx";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-8s %3d/%-3d %9.3gs %12s %7.3f %7d %7d@."
        r.protocol r.completed r.flows r.mean_fct
        (Format.asprintf "%a" Sim.Units.pp_rate r.goodput)
        r.jain r.drops r.retransmissions)
    rows
