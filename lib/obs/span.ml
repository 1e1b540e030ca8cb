module T = Chunksim.Trace
module Key = Chunksim.Chunk_key

type chunk = {
  c_flow : int;
  c_idx : int;
  mutable c_rev : (float * T.event) list; (* newest first *)
}

type t = {
  chunks : (int, chunk) Hashtbl.t;
  mutable rev_global : (float * T.event) list; (* annotations, newest first *)
  mutable n_events : int;
}

type breakdown = {
  flow : int;
  idx : int;
  first_t : float;
  last_t : float;
  queue_s : float;
  wire_s : float;
  custody_s : float;
  other_s : float;
  hops : int;
  detours : int;
  retransmits : int;
  delivered : bool;
}

let create () =
  { chunks = Hashtbl.create 256; rev_global = []; n_events = 0 }

let chunk_of t ~flow ~idx =
  let key = Key.pack ~flow ~idx in
  match Hashtbl.find_opt t.chunks key with
  | Some c -> c
  | None ->
    let c = { c_flow = flow; c_idx = idx; c_rev = [] } in
    Hashtbl.add t.chunks key c;
    c

(* chunk key of an event, or None for keyless events *)
let event_key = function
  | T.Enqueued { flow; idx; _ }
  | T.Tx_begin { flow; idx; _ }
  | T.Delivered { flow; idx; _ }
  | T.Retransmit { flow; idx }
  | T.Cached { flow; idx; _ }
  | T.Cache_hit { flow; idx; _ }
  | T.Custody_released { flow; idx; _ }
  | T.Custody_evacuated { flow; idx; _ }
  | T.Custody_evicted { flow; idx; _ }
  | T.Detoured { flow; idx; _ } ->
    Some (flow, idx)
  | T.Dropped _ | T.Phase_change _ | T.Bp_signal _
  | T.Flow_complete _ | T.Link_fault _ | T.Node_fault _ ->
    None

let add t ~time e =
  t.n_events <- t.n_events + 1;
  match event_key e with
  | Some (flow, idx) ->
    let c = chunk_of t ~flow ~idx in
    c.c_rev <- (time, e) :: c.c_rev
  | None -> (
    match e with
    | T.Phase_change _ | T.Bp_signal _ | T.Flow_complete _ | T.Link_fault _
    | T.Node_fault _ ->
      t.rev_global <- (time, e) :: t.rev_global
    | _ -> ())

let sink t = Sink.callback (fun time e -> add t ~time e)

let of_events evs =
  let t = create () in
  List.iter (fun (time, e) -> add t ~time e) evs;
  t

let chunk_count t = Hashtbl.length t.chunks
let event_count t = t.n_events

(* sort a chunk's events by timestamp, NaN last; record order breaks
   ties (List.stable_sort) so simultaneous events keep causal order *)
let cmp_ev (a, _) (b, _) =
  match (Float.is_nan a, Float.is_nan b) with
  | true, true -> 0
  | true, false -> 1
  | false, true -> -1
  | false, false -> Float.compare a b

let sorted_events c = List.stable_sort cmp_ev (List.rev c.c_rev)

type stage = Queue | Wire | Custody | Other

let stage_opened = function
  | T.Enqueued _ -> Queue
  | T.Tx_begin _ -> Wire
  | T.Cached _ -> Custody
  | _ -> Other

let interval t0 t1 =
  let d = t1 -. t0 in
  if Float.is_finite d && d > 0. then d else 0.

let breakdown_of c =
  let evs = sorted_events c in
  let queue = ref 0. and wire = ref 0. and custody = ref 0. in
  let other = ref 0. in
  let hops = ref 0 and detours = ref 0 and retransmits = ref 0 in
  let delivered = ref false in
  let rec walk = function
    | (t0, e0) :: ((t1, _) :: _ as rest) ->
      let d = interval t0 t1 in
      (match stage_opened e0 with
      | Queue -> queue := !queue +. d
      | Wire -> wire := !wire +. d
      | Custody -> custody := !custody +. d
      | Other -> other := !other +. d);
      walk rest
    | [ _ ] | [] -> ()
  in
  walk evs;
  List.iter
    (fun (_, e) ->
      match e with
      | T.Tx_begin _ -> incr hops
      | T.Detoured _ -> incr detours
      | T.Retransmit _ -> incr retransmits
      | T.Delivered _ -> delivered := true
      | _ -> ())
    evs;
  let first_t = match evs with (t, _) :: _ -> t | [] -> Float.nan in
  let last_t =
    List.fold_left (fun acc (t, _) -> if Float.is_nan t then acc else t)
      first_t evs
  in
  {
    flow = c.c_flow;
    idx = c.c_idx;
    first_t;
    last_t;
    queue_s = !queue;
    wire_s = !wire;
    custody_s = !custody;
    other_s = !other;
    hops = !hops;
    detours = !detours;
    retransmits = !retransmits;
    delivered = !delivered;
  }

let breakdowns t =
  let bs = Hashtbl.fold (fun _ c acc -> breakdown_of c :: acc) t.chunks [] in
  List.sort
    (fun a b ->
      match Int.compare a.flow b.flow with
      | 0 -> Int.compare a.idx b.idx
      | c -> c)
    bs

let elapsed b = interval b.first_t b.last_t

let report ?(limit = 16) ppf t =
  let bs = breakdowns t in
  if bs = [] then
    Format.fprintf ppf "no chunk lifecycle events (span tracing off?)@."
  else begin
    let n = List.length bs in
    let tq = ref 0. and tw = ref 0. and tc = ref 0. and to_ = ref 0. in
    List.iter
      (fun b ->
        tq := !tq +. b.queue_s;
        tw := !tw +. b.wire_s;
        tc := !tc +. b.custody_s;
        to_ := !to_ +. b.other_s)
      bs;
    let total = !tq +. !tw +. !tc +. !to_ in
    let pct x = if total > 0. then 100. *. x /. total else 0. in
    Format.fprintf ppf
      "Critical path over %d chunks: queue %.4gs (%.1f%%)  wire %.4gs \
       (%.1f%%)  custody %.4gs (%.1f%%)  other %.4gs (%.1f%%)@.@."
      n !tq (pct !tq) !tw (pct !tw) !tc (pct !tc) !to_ (pct !to_);
    let worst =
      List.sort (fun a b -> Float.compare (elapsed b) (elapsed a)) bs
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    let shown = take limit worst in
    Format.fprintf ppf
      "  %-10s %9s %9s %9s %9s %9s %5s %4s %5s %s@." "chunk" "elapsed"
      "queue" "wire" "custody" "other" "hops" "det" "retx" "done";
    List.iter
      (fun b ->
        Format.fprintf ppf
          "  f%-4d#%-4d %8.4fs %8.4fs %8.4fs %8.4fs %8.4fs %5d %4d %5d %s@."
          b.flow b.idx (elapsed b) b.queue_s b.wire_s b.custody_s b.other_s
          b.hops b.detours b.retransmits
          (if b.delivered then "yes" else "no"))
      shown;
    if n > limit then
      Format.fprintf ppf "  (... %d more chunks, worst %d shown)@."
        (n - limit) limit
  end

(* ------------------------------------------------------------------ *)
(* Chrome trace-event / Perfetto export *)

let us t = t *. 1e6

let node_of = function
  | T.Enqueued { node; _ }
  | T.Delivered { node; _ }
  | T.Cached { node; _ }
  | T.Cache_hit { node; _ }
  | T.Custody_released { node; _ }
  | T.Custody_evacuated { node; _ }
  | T.Custody_evicted { node; _ }
  | T.Detoured { node; _ }
  | T.Phase_change { node; _ }
  | T.Bp_signal { node; _ }
  | T.Node_fault { node; _ }
  | T.Dropped { node; _ } ->
    Some node
  | T.Tx_begin _ | T.Retransmit _ | T.Flow_complete _ | T.Link_fault _ ->
    None

let num x = Json.Num x
let numi i = Json.Num (float_of_int i)
let str s = Json.Str s

let obj_line buf first j =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf "    ";
  Json.to_buffer buf j

let stage_name = function
  | Queue -> "queue"
  | Wire -> "wire"
  | Custody -> "custody"
  | Other -> "gap"

let to_perfetto buf t =
  Buffer.add_string buf
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  let emit j = obj_line buf first j in
  (* track naming: pid = flow, tid = node *)
  let flows = Hashtbl.create 16 and nodes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ c ->
      Hashtbl.replace flows c.c_flow ();
      List.iter
        (fun (_, e) ->
          match node_of e with
          | Some n -> Hashtbl.replace nodes n ()
          | None -> ())
        c.c_rev)
    t.chunks;
  let sorted_keys tbl =
    List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
  in
  List.iter
    (fun f ->
      emit
        (Json.Obj
           [ ("ph", str "M"); ("name", str "process_name"); ("pid", numi f);
             ("args", Json.Obj [ ("name", str (Printf.sprintf "flow %d" f)) ]);
           ]);
      List.iter
        (fun n ->
          emit
            (Json.Obj
               [ ("ph", str "M"); ("name", str "thread_name"); ("pid", numi f);
                 ("tid", numi n);
                 ("args",
                  Json.Obj [ ("name", str (Printf.sprintf "node %d" n)) ]);
               ]))
        (sorted_keys nodes))
    (sorted_keys flows);
  (* per-chunk slices + causal flow-arrow chain *)
  let chunk_keys =
    List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.chunks [])
  in
  List.iter
    (fun key ->
      let c = Hashtbl.find t.chunks key in
      let evs =
        List.filter (fun (t0, _) -> not (Float.is_nan t0)) (sorted_events c)
      in
      let name = Printf.sprintf "f%d#%d" c.c_flow c.c_idx in
      let pid = numi c.c_flow in
      (* the node a wire slice belongs to: the last node-bearing event *)
      let cur_node = ref 0 in
      let n_evs = List.length evs in
      List.iteri
        (fun i (t0, e0) ->
          (match node_of e0 with Some n -> cur_node := n | None -> ());
          let tid = numi !cur_node in
          (* stage slice up to the next event *)
          (match List.nth_opt evs (i + 1) with
          | Some (t1, _) when interval t0 t1 > 0. ->
            let stage = stage_opened e0 in
            let args =
              match e0 with
              | T.Enqueued { link; _ } | T.Tx_begin { link; _ } ->
                [ ("link", numi link) ]
              | _ -> []
            in
            emit
              (Json.Obj
                 [ ("ph", str "X"); ("name", str (stage_name stage));
                   ("cat", str "chunk"); ("pid", pid); ("tid", tid);
                   ("ts", num (us t0)); ("dur", num (us (interval t0 t1)));
                   ("args", Json.Obj (("chunk", str name) :: args));
                 ])
          | _ -> ());
          (* causal chain: start / step / finish flow events keyed by
             the packed chunk key *)
          let ph =
            if i = 0 then "s" else if i = n_evs - 1 then "f" else "t"
          in
          let base =
            [ ("ph", str ph); ("id", numi key); ("name", str "chunk");
              ("cat", str "chunk"); ("pid", pid); ("tid", tid);
              ("ts", num (us t0));
            ]
          in
          emit
            (Json.Obj (if ph = "f" then base @ [ ("bp", str "e") ] else base));
          (* notable lifecycle instants *)
          match e0 with
          | T.Retransmit _ | T.Detoured _ | T.Cache_hit _
          | T.Custody_evicted _ | T.Custody_evacuated _ ->
            emit
              (Json.Obj
                 [ ("ph", str "i"); ("name", str (Trace_codec.kind e0));
                   ("cat", str "chunk"); ("s", str "t"); ("pid", pid);
                   ("tid", tid); ("ts", num (us t0));
                 ])
          | _ -> ())
        evs)
    chunk_keys;
  (* global annotations as process-scoped instants on pid 0 *)
  List.iter
    (fun (t0, e) ->
      if not (Float.is_nan t0) then
        emit
          (Json.Obj
             [ ("ph", str "i"); ("name", str (Trace_codec.kind e));
               ("cat", str "net"); ("s", str "g"); ("pid", numi 0);
               ("tid", numi (Option.value ~default:0 (node_of e)));
               ("ts", num (us t0));
             ]))
    (List.rev t.rev_global);
  Buffer.add_string buf "\n]}\n"
