type admission =
  | Drop_tail
  | Object_runs
  | Fair_share

type t = Off | On of admission

let default = On Object_runs
let shed_threshold = 0.9
let early_bp_threshold = 0.5
let neighbor_pressure = 0.85
let retry_budget = 4
let probe_interval = 1.0
let watchdog_window = 1.0
let collapse_ratio = 0.3
let recovery_ratio = 0.7

let policy t : Chunksim.Cache.policy option =
  match t with
  | Off | On Drop_tail -> None
  | On Object_runs -> Some (Chunksim.Cache.object_runs ())
  | On Fair_share -> Some (Chunksim.Cache.fair_share ())

let admission_name = function
  | Off -> "off"
  | On Drop_tail -> "drop-tail"
  | On Object_runs -> "object-runs"
  | On Fair_share -> "fair-share"
