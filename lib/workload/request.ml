type t = {
  start : float;
  src : int;
  dst : int;
  content : int;
  chunks : int;
}

let to_json r =
  Obs.Json.Obj
    [
      ("t", Obs.Json.Num r.start);
      ("src", Obs.Json.Num (float_of_int r.src));
      ("dst", Obs.Json.Num (float_of_int r.dst));
      ("content", Obs.Json.Num (float_of_int r.content));
      ("chunks", Obs.Json.Num (float_of_int r.chunks));
    ]

let of_json j =
  let num name =
    match Option.bind (Obs.Json.member name j) Obs.Json.to_float with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "request: missing number %S" name)
  in
  let int name =
    match Option.bind (Obs.Json.member name j) Obs.Json.to_int with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "request: missing integer %S" name)
  in
  let ( let* ) = Result.bind in
  let* start = num "t" in
  let* src = int "src" in
  let* dst = int "dst" in
  let* content = int "content" in
  let* chunks = int "chunks" in
  if start < 0. then Error "request: negative start time"
  else if chunks <= 0 then Error "request: chunks <= 0"
  else if src < 0 || dst < 0 || content < 0 then
    Error "request: negative id"
  else if src = dst then Error "request: src = dst"
  else Ok { start; src; dst; content; chunks }

