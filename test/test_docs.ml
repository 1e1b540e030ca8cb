(* The docs name entry points by path: `bin/<name>.exe` for the
   executables and `bench/main.exe -- <id> ...` for the experiments.
   Every such mention must name an executable that bin/dune builds or
   an id in Experiments.all, so a retired entry point cannot linger in
   the instructions.  Paths are relative to the repository root: the
   current directory under `dune exec`, its parent under `dune test`. *)

let docs =
  [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md"; ".claude/skills/verify/SKILL.md" ]

let root = if Sys.file_exists "bin/dune" then "." else ".."

let read file =
  In_channel.with_open_bin (Filename.concat root file) In_channel.input_all

let words s =
  String.split_on_char ' '
    (String.map (function '\n' | '\t' -> ' ' | c -> c) s)
  |> List.filter (( <> ) "")

(* start positions of [sub] in [s] *)
let occurrences ~sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then List.rev acc
    else if String.sub s i n = sub then go (i + n) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* first index at or after [from] whose char fails [ok] *)
let scan ok s from =
  let i = ref from in
  while !i < String.length s && ok s.[!i] do
    incr i
  done;
  !i

let bin_names () =
  let s = read "bin/dune" in
  match occurrences ~sub:"(names" s with
  | start :: _ ->
    let from = start + String.length "(names" in
    words (String.sub s from (String.index_from s from ')' - from))
  | [] -> Alcotest.fail "bin/dune has no (names ...) field"

let is_lower_or_digit c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')

(* names [n] of every `bin/n.exe` on the line *)
let exe_mentions line =
  List.filter_map
    (fun at ->
      let from = at + String.length "bin/" in
      let stop = scan (fun c -> is_lower_or_digit c || c = '_') line from in
      if stop > from && stop + 4 <= String.length line
         && String.sub line stop 4 = ".exe"
      then Some (String.sub line from (stop - from))
      else None)
    (occurrences ~sub:"bin/" line)

let is_id w =
  w.[0] >= 'a' && w.[0] <= 'z'
  && String.for_all (fun c -> is_lower_or_digit c || c = '-') w

(* ids after every `bench/main.exe -- `: the id-shaped words up to the
   first flag, shell comment, pipe, redirect or closing backtick *)
let id_mentions line =
  let prefix = "bench/main.exe -- " in
  List.concat_map
    (fun at ->
      let from = at + String.length prefix in
      let stop = scan (fun c -> not (String.contains "`#|>;&)" c)) line from in
      let rec take = function
        | w :: ws when is_id w -> w :: take ws
        | _ -> []
      in
      take (words (String.sub line from (stop - from))))
    (occurrences ~sub:prefix line)

let check_mentions ~what ~mentions ~known () =
  let known = known () in
  let seen = ref 0 and bad = ref [] in
  List.iter
    (fun file ->
      List.iteri
        (fun i line ->
          List.iter
            (fun m ->
              incr seen;
              if not (List.mem m known) then
                bad := Printf.sprintf "%s:%d: %s %S" file (i + 1) what m :: !bad)
            (mentions line))
        (String.split_on_char '\n' (read file)))
    docs;
  if !seen = 0 then Alcotest.failf "no %s mentioned in the docs" what;
  if !bad <> [] then
    Alcotest.failf "docs name entry points that do not exist:\n%s"
      (String.concat "\n" (List.rev !bad))

let () =
  Alcotest.run "docs"
    [
      ( "docs",
        [
          Alcotest.test_case "executables in bin/dune" `Quick
            (check_mentions ~what:"executable" ~mentions:exe_mentions
               ~known:bin_names);
          Alcotest.test_case "experiment ids in Experiments.all" `Quick
            (check_mentions ~what:"experiment id" ~mentions:id_mentions
               ~known:(fun () -> List.map fst Experiments.all));
        ] );
    ]
