type phase = Push_data | Detour | Backpressure

let phase_name = function
  | Push_data -> "push-data"
  | Detour -> "detour"
  | Backpressure -> "backpressure"

type packet = Data | Request

let packet_name = function Data -> "data" | Request -> "request"

type event =
  | Dropped of {
      node : Topology.Node.id;
      link : int;
      packet : packet;
      flow : int;
      idx : int;
    }
  | Cached of { node : Topology.Node.id; flow : int; idx : int }
  | Cache_hit of { node : Topology.Node.id; flow : int; idx : int }
  | Custody_released of { node : Topology.Node.id; flow : int; idx : int }
  | Detoured of { node : Topology.Node.id; flow : int; idx : int; via : Topology.Node.id }
  | Phase_change of { node : Topology.Node.id; link : int; phase : phase }
  | Bp_signal of { node : Topology.Node.id; flow : int; engage : bool }
  | Flow_complete of { flow : int; fct : float }
  | Link_fault of { link : int; up : bool }
  | Node_fault of { node : Topology.Node.id; up : bool }
  (* chunk-lifecycle events, recorded only when the trace's [lifecycle]
     flag is on (span tracing requested) *)
  | Enqueued of { node : Topology.Node.id; link : int; flow : int; idx : int }
  | Tx_begin of { link : int; flow : int; idx : int }
  | Delivered of { node : Topology.Node.id; flow : int; idx : int }
  | Retransmit of { flow : int; idx : int }
  | Custody_evacuated of { node : Topology.Node.id; flow : int; idx : int }
  | Custody_evicted of { node : Topology.Node.id; flow : int; idx : int }

type t = {
  mutable taps : (float -> event -> unit) array;
  mutable lifecycle_on : bool;
}

let create () = { taps = [||]; lifecycle_on = false }

let on_record t tap = t.taps <- Array.append t.taps [| tap |]

let set_lifecycle t on = t.lifecycle_on <- on
let lifecycle t = t.lifecycle_on

let record t ~time e =
  let taps = t.taps in
  for i = 0 to Array.length taps - 1 do
    taps.(i) time e
  done

let pp_event ppf = function
  | Dropped { node; link; packet; flow; idx } ->
    Format.fprintf ppf "n%d dropped %s f%d#%d on l%d" node (packet_name packet)
      flow idx link
  | Cached { node; flow; idx } ->
    Format.fprintf ppf "n%d custody f%d#%d" node flow idx
  | Cache_hit { node; flow; idx } ->
    Format.fprintf ppf "n%d cache-hit f%d#%d" node flow idx
  | Custody_released { node; flow; idx } ->
    Format.fprintf ppf "n%d released f%d#%d" node flow idx
  | Detoured { node; flow; idx; via } ->
    Format.fprintf ppf "n%d detoured f%d#%d via n%d" node flow idx via
  | Phase_change { node; link; phase } ->
    Format.fprintf ppf "n%d l%d -> %s" node link (phase_name phase)
  | Bp_signal { node; flow; engage } ->
    Format.fprintf ppf "n%d bp f%d %s" node flow (if engage then "on" else "off")
  | Flow_complete { flow; fct } ->
    Format.fprintf ppf "f%d complete in %.4gs" flow fct
  | Link_fault { link; up } ->
    Format.fprintf ppf "l%d %s" link (if up then "up" else "down")
  | Node_fault { node; up } ->
    Format.fprintf ppf "n%d %s" node (if up then "restarted" else "crashed")
  | Enqueued { node; link; flow; idx } ->
    Format.fprintf ppf "n%d enqueued f%d#%d on l%d" node flow idx link
  | Tx_begin { link; flow; idx } ->
    Format.fprintf ppf "l%d tx f%d#%d" link flow idx
  | Delivered { node; flow; idx } ->
    Format.fprintf ppf "n%d delivered f%d#%d" node flow idx
  | Retransmit { flow; idx } -> Format.fprintf ppf "retransmit f%d#%d" flow idx
  | Custody_evacuated { node; flow; idx } ->
    Format.fprintf ppf "n%d evacuated f%d#%d" node flow idx
  | Custody_evicted { node; flow; idx } ->
    Format.fprintf ppf "n%d evicted f%d#%d" node flow idx
