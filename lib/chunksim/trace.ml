type event =
  | Dropped of { node : Topology.Node.id; link : int; packet : string }
  | Cached of { node : Topology.Node.id; flow : int; idx : int }
  | Cache_hit of { node : Topology.Node.id; flow : int; idx : int }
  | Custody_released of { node : Topology.Node.id; flow : int; idx : int }
  | Detoured of { node : Topology.Node.id; flow : int; idx : int; via : Topology.Node.id }
  | Phase_change of { node : Topology.Node.id; link : int; phase : string }
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
  limit : int;
  mutable rev_events : (float * event) list;
  mutable size : int;
  mutable taps : (float -> event -> unit) array;
  mutable lifecycle_on : bool;
}

let create ?(limit = 100_000) () =
  if limit <= 0 then invalid_arg "Trace.create: limit <= 0";
  { limit; rev_events = []; size = 0; taps = [||]; lifecycle_on = false }

let on_record t tap = t.taps <- Array.append t.taps [| tap |]

let set_lifecycle t on = t.lifecycle_on <- on
let lifecycle t = t.lifecycle_on

let record t ~time e =
  let taps = t.taps in
  for i = 0 to Array.length taps - 1 do
    taps.(i) time e
  done;
  t.rev_events <- (time, e) :: t.rev_events;
  t.size <- t.size + 1;
  if t.size > 2 * t.limit then begin
    (* amortised trim: keep the newest [limit] *)
    let rec take n acc = function
      | [] -> acc
      | x :: rest -> if n = 0 then acc else take (n - 1) (x :: acc) rest
    in
    t.rev_events <- List.rev (take t.limit [] t.rev_events);
    t.size <- t.limit
  end

let events t = List.rev t.rev_events

let count t pred =
  List.fold_left
    (fun acc (_, e) -> if pred e then acc + 1 else acc)
    0 t.rev_events

let find_all t pred = List.filter (fun (_, e) -> pred e) (events t)

let pp_event ppf = function
  | Dropped { node; link; packet } ->
    Format.fprintf ppf "n%d dropped %s on l%d" node packet link
  | Cached { node; flow; idx } ->
    Format.fprintf ppf "n%d custody f%d#%d" node flow idx
  | Cache_hit { node; flow; idx } ->
    Format.fprintf ppf "n%d cache-hit f%d#%d" node flow idx
  | Custody_released { node; flow; idx } ->
    Format.fprintf ppf "n%d released f%d#%d" node flow idx
  | Detoured { node; flow; idx; via } ->
    Format.fprintf ppf "n%d detoured f%d#%d via n%d" node flow idx via
  | Phase_change { node; link; phase } ->
    Format.fprintf ppf "n%d l%d -> %s" node link phase
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
