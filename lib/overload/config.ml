type admission =
  | Drop_tail
  | Object_runs
  | Fair_share

type t = {
  admission : admission;
  shed_threshold : float;
  early_bp_threshold : float;
  neighbor_pressure : float;
  retry_budget : int;
  probe_interval : float;
  watchdog_window : float;
  collapse_ratio : float;
  recovery_ratio : float;
}

let default =
  {
    admission = Object_runs;
    shed_threshold = 0.9;
    early_bp_threshold = 0.5;
    neighbor_pressure = 0.85;
    retry_budget = 4;
    probe_interval = 1.0;
    watchdog_window = 1.0;
    collapse_ratio = 0.3;
    recovery_ratio = 0.7;
  }

let off =
  {
    admission = Drop_tail;
    shed_threshold = infinity;
    early_bp_threshold = infinity;
    neighbor_pressure = infinity;
    retry_budget = max_int;
    probe_interval = infinity;
    watchdog_window = 0.;
    collapse_ratio = 0.;
    recovery_ratio = 0.;
  }

let watchdog_enabled t = t.watchdog_window > 0.

let validate t =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if t.shed_threshold <= 0. then
    fail "Overload.Config: shed_threshold %g <= 0" t.shed_threshold;
  if t.early_bp_threshold <= 0. then
    fail "Overload.Config: early_bp_threshold %g <= 0" t.early_bp_threshold;
  if t.neighbor_pressure <= 0. then
    fail "Overload.Config: neighbor_pressure %g <= 0" t.neighbor_pressure;
  if t.retry_budget < 0 then
    fail "Overload.Config: retry_budget %d < 0" t.retry_budget;
  if t.probe_interval <= 0. then
    fail "Overload.Config: probe_interval %g <= 0" t.probe_interval;
  if t.watchdog_window < 0. then
    fail "Overload.Config: watchdog_window %g < 0" t.watchdog_window;
  if watchdog_enabled t then begin
    if not (0. < t.collapse_ratio && t.collapse_ratio < t.recovery_ratio
            && t.recovery_ratio <= 1.) then
      fail
        "Overload.Config: watchdog ratios must satisfy 0 < collapse (%g) < \
         recovery (%g) <= 1"
        t.collapse_ratio t.recovery_ratio
  end

let policy t : Chunksim.Cache.policy option =
  match t.admission with
  | Drop_tail -> None
  | Object_runs -> Some (Chunksim.Cache.object_runs ~threshold:0.6 ())
  | Fair_share -> Some (Chunksim.Cache.fair_share ())

let admission_name t =
  match t.admission with
  | Drop_tail -> "drop-tail"
  | Object_runs -> "object-runs"
  | Fair_share -> "fair-share"
