type t = {
  chunk_bits : float;
  anticipation : int;
  initial_request_rate : float;
  request_timeout : float;
  timeout_backoff : float;
  timeout_backoff_cap : float;
  ti : float;
  estimator_alpha : float;
  engage_ratio : float;
  release_ratio : float;
  max_detour : int;
  flowlet_gap : float;
  detour_queue_threshold : float;
  cache_bits : float;
  cache_high_water : float;
  cache_low_water : float;
  queue_bits : float;
  speed_factor : float;
  drr_scheduler : bool;
  icn_caching : bool;
  pitless : bool;
  flow_teardown : bool;
}

let default =
  {
    chunk_bits = 10e3 *. 8.;
    anticipation = 8;
    initial_request_rate = 100.;
    request_timeout = 0.2;
    timeout_backoff = 1.;
    timeout_backoff_cap = 32.;
    ti = 0.04;
    estimator_alpha = 0.3;
    engage_ratio = 0.95;
    release_ratio = 0.75;
    max_detour = 2;
    flowlet_gap = 0.02;
    detour_queue_threshold = 0.5;
    cache_bits = 4e6 *. 8.;
    cache_high_water = 0.7;
    cache_low_water = 0.3;
    queue_bits = 64. *. 10e3 *. 8.;
    speed_factor = 1.;
    drr_scheduler = false;
    icn_caching = false;
    pitless = false;
    flow_teardown = false;
  }

let validate c =
  let err msg = Error ("Config: " ^ msg) in
  if c.chunk_bits <= 0. then err "chunk_bits <= 0"
  else if c.anticipation < 0 then err "anticipation < 0"
  else if c.initial_request_rate <= 0. then err "initial_request_rate <= 0"
  else if c.request_timeout <= 0. then err "request_timeout <= 0"
  else if c.timeout_backoff < 1. then err "timeout_backoff < 1"
  else if c.timeout_backoff_cap < 1. then err "timeout_backoff_cap < 1"
  else if c.ti <= 0. then err "ti <= 0"
  else if c.estimator_alpha < 0. || c.estimator_alpha > 1. then
    err "estimator_alpha outside [0,1]"
  else if c.engage_ratio <= c.release_ratio then
    err "engage_ratio must exceed release_ratio"
  else if c.engage_ratio > 2. || c.release_ratio < 0. then
    err "phase ratios out of range"
  else if c.max_detour < 0 then err "max_detour < 0"
  else if c.flowlet_gap < 0. then err "flowlet_gap < 0"
  else if c.detour_queue_threshold <= 0. || c.detour_queue_threshold > 1. then
    err "detour_queue_threshold outside (0,1]"
  else if c.cache_bits <= 0. then err "cache_bits <= 0"
  else if
    not
      (0. <= c.cache_low_water
      && c.cache_low_water < c.cache_high_water
      && c.cache_high_water <= 1.)
  then err "cache watermarks must satisfy 0 <= low < high <= 1"
  else if c.queue_bits <= 0. then err "queue_bits <= 0"
  else if c.speed_factor <= 0. || c.speed_factor > 1. then
    err "speed_factor outside (0,1]"
  else if c.pitless && c.icn_caching then
    err "pitless forwarding has no per-flow content keys for icn_caching"
  else Ok c

let chunk_tx_time c ~rate =
  if rate <= 0. then invalid_arg "Config.chunk_tx_time: rate <= 0";
  c.chunk_bits /. rate
