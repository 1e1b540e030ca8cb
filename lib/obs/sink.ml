module T = Chunksim.Trace

type t = {
  emit_fn : float -> T.event -> unit;
  close_fn : unit -> unit;
}

let close t = t.close_fn ()
let attach t tr = T.on_record tr t.emit_fn

let callback ?(close = ignore) f = { emit_fn = f; close_fn = close }

let ndjson oc =
  let buf = Buffer.create 256 in
  {
    emit_fn =
      (fun time e ->
        Buffer.clear buf;
        Json.to_buffer buf (Trace_codec.to_json ~time e);
        Buffer.add_char buf '\n';
        Buffer.output_buffer oc buf);
    close_fn = (fun () -> flush oc);
  }

let counter_tap registry =
  (* one pre-registered counter per kind: the hot path is a match plus
     an int increment *)
  let c kind = Metric.counter registry ~labels:[ ("kind", kind) ] "trace_events_total" in
  let dropped = c "dropped" in
  let cached = c "cached" and cache_hit = c "cache_hit" in
  let custody_released = c "custody_released" and detoured = c "detoured" in
  let phase_change = c "phase_change" and bp_signal = c "bp_signal" in
  let flow_complete = c "flow_complete" in
  let link_fault = c "link_fault" and node_fault = c "node_fault" in
  let enqueued = c "enqueued" and tx_begin = c "tx_begin" in
  let delivered = c "delivered" and retransmit = c "retransmit" in
  let custody_evacuated = c "custody_evacuated" in
  let custody_evicted = c "custody_evicted" in
  {
    emit_fn =
      (fun _time e ->
        Metric.incr
          (match e with
          | T.Dropped _ -> dropped
          | T.Cached _ -> cached
          | T.Cache_hit _ -> cache_hit
          | T.Custody_released _ -> custody_released
          | T.Detoured _ -> detoured
          | T.Phase_change _ -> phase_change
          | T.Bp_signal _ -> bp_signal
          | T.Flow_complete _ -> flow_complete
          | T.Link_fault _ -> link_fault
          | T.Node_fault _ -> node_fault
          | T.Enqueued _ -> enqueued
          | T.Tx_begin _ -> tx_begin
          | T.Delivered _ -> delivered
          | T.Retransmit _ -> retransmit
          | T.Custody_evacuated _ -> custody_evacuated
          | T.Custody_evicted _ -> custody_evicted));
    close_fn = ignore;
  }

