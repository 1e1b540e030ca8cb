let save oc requests =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Obs.Json.to_buffer buf (Request.to_json r);
      Buffer.add_char buf '\n';
      if Buffer.length buf > 65536 then begin
        Buffer.output_buffer oc buf;
        Buffer.clear buf
      end)
    requests;
  Buffer.output_buffer oc buf

let save_file path requests =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> save oc requests)

let load ic =
  let reader = Obs.Json.Reader.of_channel ic in
  let rec go acc =
    match Obs.Json.Reader.next reader with
    | None -> Ok (List.rev acc)
    | Some (Error msg) -> Error msg
    | Some (Ok j) ->
      (match Request.of_json j with
      | Ok r -> go (r :: acc)
      | Error msg ->
        Error
          (Printf.sprintf "line %d: %s" (Obs.Json.Reader.line_no reader) msg))
  in
  go []

let load_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> load ic)

let validate g requests =
  let n = Topology.Graph.node_count g in
  let rec go i = function
    | [] -> Ok ()
    | r :: rest ->
      if r.Request.src < 0 || r.Request.src >= n then
        Error (Printf.sprintf "request %d: src %d outside graph" i r.Request.src)
      else if r.Request.dst < 0 || r.Request.dst >= n then
        Error (Printf.sprintf "request %d: dst %d outside graph" i r.Request.dst)
      else if r.Request.src = r.Request.dst then
        Error (Printf.sprintf "request %d: src = dst" i)
      else go (i + 1) rest
  in
  go 0 requests
