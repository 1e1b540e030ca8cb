module T = Chunksim.Trace

let kind = function
  | T.Dropped _ -> "dropped"
  | T.Cached _ -> "cached"
  | T.Cache_hit _ -> "cache_hit"
  | T.Custody_released _ -> "custody_released"
  | T.Detoured _ -> "detoured"
  | T.Phase_change _ -> "phase_change"
  | T.Bp_signal _ -> "bp_signal"
  | T.Flow_complete _ -> "flow_complete"
  | T.Link_fault _ -> "link_fault"
  | T.Node_fault _ -> "node_fault"
  | T.Enqueued _ -> "enqueued"
  | T.Tx_begin _ -> "tx_begin"
  | T.Delivered _ -> "delivered"
  | T.Retransmit _ -> "retransmit"
  | T.Custody_evacuated _ -> "custody_evacuated"
  | T.Custody_evicted _ -> "custody_evicted"

let num i = Json.Num (float_of_int i)

let fields = function
  | T.Dropped { node; link; packet; flow; idx } ->
    [ ("node", num node); ("link", num link);
      ("packet", Json.Str (T.packet_name packet)); ("flow", num flow);
      ("idx", num idx) ]
  | T.Cached { node; flow; idx } | T.Cache_hit { node; flow; idx }
  | T.Custody_released { node; flow; idx } ->
    [ ("node", num node); ("flow", num flow); ("idx", num idx) ]
  | T.Detoured { node; flow; idx; via } ->
    [ ("node", num node); ("flow", num flow); ("idx", num idx); ("via", num via) ]
  | T.Phase_change { node; link; phase } ->
    [ ("node", num node); ("link", num link);
      ("phase", Json.Str (T.phase_name phase)) ]
  | T.Bp_signal { node; flow; engage } ->
    [ ("node", num node); ("flow", num flow); ("engage", Json.Bool engage) ]
  | T.Flow_complete { flow; fct } ->
    [ ("flow", num flow); ("fct", Json.Num fct) ]
  | T.Link_fault { link; up } ->
    [ ("link", num link); ("up", Json.Bool up) ]
  | T.Node_fault { node; up } ->
    [ ("node", num node); ("up", Json.Bool up) ]
  | T.Enqueued { node; link; flow; idx } ->
    [ ("node", num node); ("link", num link); ("flow", num flow);
      ("idx", num idx) ]
  | T.Tx_begin { link; flow; idx } ->
    [ ("link", num link); ("flow", num flow); ("idx", num idx) ]
  | T.Delivered { node; flow; idx } | T.Custody_evacuated { node; flow; idx }
  | T.Custody_evicted { node; flow; idx } ->
    [ ("node", num node); ("flow", num flow); ("idx", num idx) ]
  | T.Retransmit { flow; idx } -> [ ("flow", num flow); ("idx", num idx) ]

let to_json ~time e =
  Json.Obj
    (("type", Json.Str "event")
    :: ("t", Json.Num time)
    :: ("kind", Json.Str (kind e))
    :: fields e)

(* ------------------------------------------------------------------ *)
(* Decoding — the inverse of [to_json], used by the report CLI and the
   round-trip tests *)

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name =
    match Json.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "event: missing field %S" name)
  in
  let int_f name =
    let* v = field name in
    match Json.to_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "event: field %S is not an int" name)
  in
  let float_f name =
    let* v = field name in
    match v with
    | Json.Num x -> Ok x
    | Json.Null -> Ok Float.nan (* the printer writes NaN as null *)
    | _ -> Error (Printf.sprintf "event: field %S is not a number" name)
  in
  let bool_f name =
    let* v = field name in
    match v with
    | Json.Bool b -> Ok b
    | _ -> Error (Printf.sprintf "event: field %S is not a bool" name)
  in
  let str_f name =
    let* v = field name in
    match Json.to_str v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "event: field %S is not a string" name)
  in
  (* a string field naming one of [values] *)
  let named_f name name_of values =
    let* s = str_f name in
    match List.find_opt (fun v -> name_of v = s) values with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "event: unknown %s %S" name s)
  in
  let* () =
    match Json.member "type" j with
    | Some (Json.Str "event") -> Ok ()
    | _ -> Error "event: type is not \"event\""
  in
  let* time = float_f "t" in
  let* k = str_f "kind" in
  let* e =
    match k with
    | "dropped" ->
      let* node = int_f "node" in
      let* link = int_f "link" in
      let* packet = named_f "packet" T.packet_name [ T.Data; T.Request ] in
      let* flow = int_f "flow" in
      let* idx = int_f "idx" in
      Ok (T.Dropped { node; link; packet; flow; idx })
    | "cached" | "cache_hit" | "custody_released" | "delivered"
    | "custody_evacuated" | "custody_evicted" ->
      let* node = int_f "node" in
      let* flow = int_f "flow" in
      let* idx = int_f "idx" in
      Ok
        (match k with
        | "cached" -> T.Cached { node; flow; idx }
        | "cache_hit" -> T.Cache_hit { node; flow; idx }
        | "custody_released" -> T.Custody_released { node; flow; idx }
        | "delivered" -> T.Delivered { node; flow; idx }
        | "custody_evacuated" -> T.Custody_evacuated { node; flow; idx }
        | _ -> T.Custody_evicted { node; flow; idx })
    | "detoured" ->
      let* node = int_f "node" in
      let* flow = int_f "flow" in
      let* idx = int_f "idx" in
      let* via = int_f "via" in
      Ok (T.Detoured { node; flow; idx; via })
    | "phase_change" ->
      let* node = int_f "node" in
      let* link = int_f "link" in
      let* phase =
        named_f "phase" T.phase_name [ T.Push_data; T.Detour; T.Backpressure ]
      in
      Ok (T.Phase_change { node; link; phase })
    | "bp_signal" ->
      let* node = int_f "node" in
      let* flow = int_f "flow" in
      let* engage = bool_f "engage" in
      Ok (T.Bp_signal { node; flow; engage })
    | "flow_complete" ->
      let* flow = int_f "flow" in
      let* fct = float_f "fct" in
      Ok (T.Flow_complete { flow; fct })
    | "link_fault" ->
      let* link = int_f "link" in
      let* up = bool_f "up" in
      Ok (T.Link_fault { link; up })
    | "node_fault" ->
      let* node = int_f "node" in
      let* up = bool_f "up" in
      Ok (T.Node_fault { node; up })
    | "enqueued" ->
      let* node = int_f "node" in
      let* link = int_f "link" in
      let* flow = int_f "flow" in
      let* idx = int_f "idx" in
      Ok (T.Enqueued { node; link; flow; idx })
    | "tx_begin" ->
      let* link = int_f "link" in
      let* flow = int_f "flow" in
      let* idx = int_f "idx" in
      Ok (T.Tx_begin { link; flow; idx })
    | "retransmit" ->
      let* flow = int_f "flow" in
      let* idx = int_f "idx" in
      Ok (T.Retransmit { flow; idx })
    | k -> Error (Printf.sprintf "event: unknown kind %S" k)
  in
  Ok (time, e)

