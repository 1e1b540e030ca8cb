type row = string * int * float * float

let schema = "inrpp-profile/v1"

let sorted rows =
  List.sort (fun (_, _, wa, _) (_, _, wb, _) -> Float.compare wb wa) rows

let to_json rows =
  let row_json (kind, events, wall, words) =
    Json.Obj
      [
        ("kind", Json.Str kind);
        ("events", Json.Num (float_of_int events));
        ("wall_s", Json.Num wall);
        ("minor_words", Json.Num words);
      ]
  in
  Json.Obj
    [
      ("type", Json.Str "profile");
      ("schema", Json.Str schema);
      ("rows", Json.List (List.map row_json (sorted rows)));
    ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let* () =
    match Json.member "type" j with
    | Some (Json.Str "profile") -> Ok ()
    | _ -> Error "profile: type is not \"profile\""
  in
  let* () =
    match Json.member "schema" j with
    | Some (Json.Str s) when s = schema -> Ok ()
    | Some (Json.Str s) -> Error ("profile: unknown schema " ^ s)
    | _ -> Error "profile: missing schema"
  in
  let float_f r name =
    match Option.bind (Json.member name r) Json.to_float with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "profile row: bad field %S" name)
  in
  let row r =
    let* kind =
      match Option.bind (Json.member "kind" r) Json.to_str with
      | Some s -> Ok s
      | None -> Error "profile row: bad field \"kind\""
    in
    let* events =
      match Option.bind (Json.member "events" r) Json.to_int with
      | Some i -> Ok i
      | None -> Error "profile row: bad field \"events\""
    in
    let* wall = float_f r "wall_s" in
    let* words = float_f r "minor_words" in
    Ok (kind, events, wall, words)
  in
  match Json.member "rows" j with
  | Some (Json.List rs) ->
    let rec conv acc = function
      | [] -> Ok (List.rev acc)
      | r :: rest ->
        let* v = row r in
        conv (v :: acc) rest
    in
    conv [] rs
  | _ -> Error "profile: missing rows"

let report ppf rows =
  match sorted rows with
  | [] -> Format.fprintf ppf "no profile rows (profiler off?)@."
  | rows ->
    let t_wall =
      List.fold_left (fun acc (_, _, w, _) -> acc +. w) 0. rows
    in
    let t_events = List.fold_left (fun acc (_, n, _, _) -> acc + n) 0 rows in
    Format.fprintf ppf "  %-16s %10s %10s %6s %10s %12s@." "kind" "events"
      "wall" "share" "us/event" "words/event";
    List.iter
      (fun (kind, events, wall, words) ->
        let n = float_of_int (max events 1) in
        Format.fprintf ppf "  %-16s %10d %9.4fs %5.1f%% %10.3f %12.1f@." kind
          events wall
          (if t_wall > 0. then 100. *. wall /. t_wall else 0.)
          (1e6 *. wall /. n) (words /. n))
      rows;
    Format.fprintf ppf "  %-16s %10d %9.4fs@." "total" t_events t_wall
