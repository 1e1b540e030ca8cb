type t = {
  chunk_bits : float;
  anticipation : int;
  request_timeout : float;
  timeout_backoff : float;
  cache_bits : float;
  queue_bits : float;
  drr_scheduler : bool;
  icn_caching : bool;
  pitless : bool;
  flow_teardown : bool;
}

let default =
  {
    chunk_bits = 10e3 *. 8.;
    anticipation = 8;
    request_timeout = 0.2;
    timeout_backoff = 1.;
    cache_bits = 4e6 *. 8.;
    queue_bits = 64. *. 10e3 *. 8.;
    drr_scheduler = false;
    icn_caching = false;
    pitless = false;
    flow_teardown = false;
  }

let ti = 0.04
let estimator_alpha = 0.3
let engage_ratio = 0.95
let release_ratio = 0.75
let timeout_backoff_cap = 32.

let validate c =
  let err msg = Error ("Config: " ^ msg) in
  if c.chunk_bits <= 0. then err "chunk_bits <= 0"
  else if c.anticipation < 0 then err "anticipation < 0"
  else if c.request_timeout <= 0. then err "request_timeout <= 0"
  else if c.timeout_backoff < 1. then err "timeout_backoff < 1"
  else if c.cache_bits <= 0. then err "cache_bits <= 0"
  else if c.queue_bits <= 0. then err "queue_bits <= 0"
  else if c.pitless && c.icn_caching then
    err "pitless forwarding has no per-flow content keys for icn_caching"
  else Ok c

let chunk_tx_time c ~rate =
  if rate <= 0. then invalid_arg "Config.chunk_tx_time: rate <= 0";
  c.chunk_bits /. rate
