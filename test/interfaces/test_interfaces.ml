(* Three rules over the compiled annotations, and the walker's own
   behaviour on a fixture.

   "exports": every value a lib/ interface exports is called from
   another compilation unit outside test/, or is named in
   exports.allow with the reason a test needs it.  A value called only
   inside its own module and by no test is reported as hideable.

   "hash order": every walk over a stdlib Hashtbl (iter, fold and the
   to_seq family) and every Flow_table.iter/iter_bp in lib/, bin/ and
   bench/ is named in hash_order.allow, with the reason its order does
   or does not reach an output.

   "knobs": every optional parameter of a function a lib/ interface
   exports, and every field of a lib/ config record (a record type
   whose module exports a [default] or [default_*] constant of it), is
   set by some unit outside test/: the parameter is passed at a call,
   or the function is passed as a value; the field is set in a
   [{ e with f = ... }] update.  Otherwise knobs.allow names it with
   the reason a test needs it.

   Paths are relative to the build root: the current directory's
   grandparent under `dune test`, _build/default under `dune exec`
   from the repository root. *)

let root =
  if Sys.file_exists "../../lib/sim/.sim.objs" then "../.." else "_build/default"

(* the allow-lists: this directory under `dune test`, its source
   under `dune exec` *)
let allow file =
  Filename.concat (if root = "../.." then "." else "test/interfaces") file

(* each list's size today: a new entry must displace one *)
let max_exports = 7
let max_hash_order = 13

(* "pattern | reason" lines; blank lines and # comments skipped *)
let read_allow file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line '|' with
           | None -> Alcotest.failf "%s: no reason in %S" file line
           | Some i ->
             let pattern = String.trim (String.sub line 0 i) in
             let reason =
               String.trim (String.sub line (i + 1) (String.length line - i - 1))
             in
             if reason = "" then Alcotest.failf "%s: empty reason in %S" file line;
             Some (pattern, reason))

let check_size file cap entries =
  if List.length entries > cap then
    Alcotest.failf "%s has %d entries, at most %d" file (List.length entries)
      cap

let fail_with title lines =
  if lines <> [] then Alcotest.failf "%s:\n  %s" title (String.concat "\n  " lines)

(* --- exports ---------------------------------------------------- *)

type pattern = Prefix of string | Names of string list

(* "M.N.*" allows every name under "M.N."; "M.N.{a,b}" and "M.N.v"
   the names they list *)
let expand pattern =
  match String.rindex_opt pattern '.' with
  | None -> Names [ pattern ]
  | Some i ->
    let prefix = String.sub pattern 0 (i + 1) in
    let rest = String.sub pattern (i + 1) (String.length pattern - i - 1) in
    if rest = "*" then Prefix prefix
    else if String.length rest >= 2 && rest.[0] = '{' then
      Names
        (String.sub rest 1 (String.length rest - 2)
        |> String.split_on_char ','
        |> List.map (fun v -> prefix ^ String.trim v))
    else Names [ pattern ]

let allowed entries name =
  List.exists
    (fun (pattern, _) ->
      match expand pattern with
      | Prefix prefix -> String.starts_with ~prefix name
      | Names names -> List.mem name names)
    entries

let reports =
  lazy
    (let exports = Walker.exports ~root [ "lib" ] in
     let programs = Walker.units ~root [ "lib"; "bin"; "bench"; "examples" ] in
     let tests = Walker.units ~root [ "test" ] in
     Walker.classify ~exports ~programs ~tests)

let describe (r : Walker.report) =
  Printf.sprintf "%s (%s:%d)%s" r.export.name r.export.decl.loc_start.pos_fname
    r.export.decl.loc_start.pos_lnum
    (match r.test_users with
     | [] -> ""
     | users -> " called by " ^ String.concat ", " users)

let test_exports () =
  let reports = Lazy.force reports in
  let entries = read_allow (allow "exports.allow") in
  check_size "exports.allow" max_exports entries;
  fail_with "exported values no program calls (delete them, or list them in exports.allow)"
    (List.filter_map
       (fun (r : Walker.report) ->
         if r.verdict = Unused && not (allowed entries r.export.name) then
           Some (describe r)
         else None)
       reports);
  fail_with "exported values called only inside their own module (hide them)"
    (List.filter_map
       (fun (r : Walker.report) ->
         if r.verdict = Hideable && r.test_users = [] then Some (describe r)
         else None)
       reports)

(* An entry is live while it names uncalled exports that a test calls;
   one that no test needs any more should go, with its value. *)
let test_exports_live () =
  let needed (r : Walker.report) = r.verdict = Unused && r.test_users <> [] in
  let reports = Lazy.force reports in
  fail_with "exports.allow entries that name no uncalled export a test calls"
    (List.concat_map
       (fun (pattern, _) ->
         match expand pattern with
         | Prefix prefix ->
           if
             List.exists
               (fun (r : Walker.report) ->
                 needed r && String.starts_with ~prefix r.export.name)
               reports
           then []
           else [ pattern ]
         | Names names ->
           List.filter
             (fun n ->
               not
                 (List.exists
                    (fun (r : Walker.report) -> needed r && r.export.name = n)
                    reports))
             names)
       (read_allow (allow "exports.allow")))

(* --- hash order ------------------------------------------------- *)

(* "file binding path", with " xN" when a binding makes N such calls *)
let rendered_sites () =
  let units = Walker.units ~root [ "lib"; "bin"; "bench" ] in
  let rec group = function
    | [] -> []
    | (s : Walker.site) :: rest ->
      let same, others = List.partition (( = ) s) rest in
      let n = 1 + List.length same in
      Printf.sprintf "%s %s %s%s" s.file s.in_binding s.called
        (if n = 1 then "" else Printf.sprintf " x%d" n)
      :: group others
  in
  group (Walker.hash_order_sites units)

let test_hash_order () =
  let entries = read_allow (allow "hash_order.allow") in
  check_size "hash_order.allow" max_hash_order entries;
  let sites = rendered_sites () in
  fail_with "walks in hash order missing from hash_order.allow"
    (List.filter (fun s -> not (List.mem_assoc s entries)) sites);
  fail_with "hash_order.allow entries that match no walk"
    (List.filter_map
       (fun (pattern, _) -> if List.mem pattern sites then None else Some pattern)
       entries)

(* --- knobs ------------------------------------------------------ *)

(* "M.f ?{a,b}" names "M.f ?a" and "M.f ?b" *)
let knob_names pattern =
  match String.index_opt pattern '{', String.index_opt pattern '}' with
  | Some i, Some j when i < j ->
    let prefix = String.sub pattern 0 i
    and suffix = String.sub pattern (j + 1) (String.length pattern - j - 1) in
    String.sub pattern (i + 1) (j - i - 1)
    |> String.split_on_char ','
    |> List.map (fun v -> prefix ^ String.trim v ^ suffix)
  | _ -> [ pattern ]

(* knobs.allow's size today *)
let max_knobs = 8

let knobs =
  lazy
    (let exports = Walker.exports ~root [ "lib" ] in
     let records = Walker.records ~root [ "lib" ] in
     let programs = Walker.units ~root [ "lib"; "bin"; "bench"; "examples" ] in
     let tests = Walker.units ~root [ "test" ] in
     Walker.knobs ~exports ~records ~programs ~tests
     |> List.filter (fun (k : Walker.knob) -> not k.set))

let test_knobs () =
  let entries = read_allow (allow "knobs.allow") in
  if List.length entries > max_knobs then
    Alcotest.failf "knobs.allow has %d entries, at most %d"
      (List.length entries) max_knobs;
  fail_with
    "settings no program sets (make the value the only behaviour, or list \
     it in knobs.allow)"
    (List.filter_map
       (fun (k : Walker.knob) ->
         if List.exists (fun (p, _) -> List.mem k.knob (knob_names p)) entries
         then None
         else
           Some
             (match k.test_setters with
              | [] -> k.knob
              | users -> k.knob ^ " set by " ^ String.concat ", " users))
       (Lazy.force knobs))

(* every name an entry lists must be an unset setting *)
let test_knobs_live () =
  let unset = List.map (fun (k : Walker.knob) -> k.knob) (Lazy.force knobs) in
  fail_with "knobs.allow entries that match no unset setting"
    (List.concat_map
       (fun (pattern, _) ->
         List.filter (fun n -> not (List.mem n unset)) (knob_names pattern))
       (read_allow (allow "knobs.allow")))

(* --- the walker on its fixture ---------------------------------- *)

let fixture_dir = "test/interfaces/fixture"

(* the verdicts on the exports of [Fixture]; [Knob] is the knobs
   rule's fixture *)
let fixture_verdicts =
  lazy
    (let exports = Walker.exports ~root [ fixture_dir ] in
     let programs = Walker.units ~root [ fixture_dir ] in
     Walker.classify ~exports ~programs ~tests:[]
     |> List.filter_map (fun (r : Walker.report) ->
            if String.starts_with ~prefix:"Fixture." r.export.name then
              Some (r.export.name, r.verdict)
            else None))

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
         | Walker.Used -> "used"
         | Hideable -> "hideable"
         | Unused -> "unused"))
    ( = )

let fixture name expected () =
  Alcotest.(check (option verdict))
    name (Some expected)
    (List.assoc_opt name (Lazy.force fixture_verdicts))

(* every setting of the fixture, and whether [User] sets it *)
let fixture_knobs =
  lazy
    (let exports = Walker.exports ~root [ fixture_dir ] in
     let records = Walker.records ~root [ fixture_dir ] in
     let programs = Walker.units ~root [ fixture_dir ] in
     Walker.knobs ~exports ~records ~programs ~tests:[]
     |> List.map (fun (k : Walker.knob) -> k.knob, k.set))

let fixture_knob name set () =
  Alcotest.(check (option bool))
    name (Some set)
    (List.assoc_opt name (Lazy.force fixture_knobs))

(* An entry that vanishes between [readdir] and [is_directory], as a
   library archive dune is still writing can, reads as absent: here a
   dangling link named like the files sought, and one named like an
   archive, next to a [.cmt] file and a subdirectory holding one. *)
let test_dangling_entry () =
  let dir = Filename.temp_dir "walker" "" in
  let path n = Filename.concat dir n in
  Sys.mkdir (path "sub") 0o755;
  List.iter (fun n -> close_out (open_out (path n))) [ "a.cmt"; "sub/c.cmt" ];
  Unix.symlink (path "missing.cmt") (path "b.cmt");
  Unix.symlink (path "missing.a") (path "lib.a");
  let found = Walker.files_under ~suffix:".cmt" dir in
  List.iter
    (fun n -> Sys.remove (path n))
    [ "a.cmt"; "sub/c.cmt"; "b.cmt"; "lib.a" ];
  Sys.rmdir (path "sub");
  Sys.rmdir dir;
  Alcotest.(check (list string))
    "the .cmt files only" [ path "a.cmt"; path "sub/c.cmt" ] found

(* A walk is named as its call writes it, through an [open] and an
   alias alike, so an allow-list entry does not depend on either *)
let test_opened_alias () =
  Alcotest.(check (list string))
    "the walk as written"
    [ "test/interfaces/fixture/user.ml walked Tbl.fold" ]
    (Walker.hash_order_sites (Walker.units ~root [ fixture_dir ])
    |> List.map (fun (s : Walker.site) ->
           String.concat " " [ s.file; s.in_binding; s.called ]))

let test_fixture_count () =
  Alcotest.(check int) "exports" 4 (List.length (Lazy.force fixture_verdicts))

let () =
  Alcotest.run "interfaces"
    [
      ( "exports",
        [
          Alcotest.test_case "every export has a caller" `Quick test_exports;
          Alcotest.test_case "allow-list is live" `Quick test_exports_live;
        ] );
      ( "hash order",
        [ Alcotest.test_case "every walk is listed" `Quick test_hash_order ] );
      ( "knobs",
        [
          Alcotest.test_case "every setting is set" `Quick test_knobs;
          Alcotest.test_case "allow-list is live" `Quick test_knobs_live;
        ] );
      ( "walker",
        [
          Alcotest.test_case "four exports" `Quick test_fixture_count;
          Alcotest.test_case "dangling entry absent" `Quick
            test_dangling_entry;
          Alcotest.test_case "planted export flagged" `Quick
            (fixture "Fixture.planted" Unused);
          Alcotest.test_case "own-module use hideable" `Quick
            (fixture "Fixture.helper" Hideable);
          Alcotest.test_case "alias use counts" `Quick
            (fixture "Fixture.entry" Used);
          Alcotest.test_case "functor argument counts" `Quick
            (fixture "Fixture.Key.compare" Used);
          Alcotest.test_case "opened alias spelled as written" `Quick
            test_opened_alias;
          Alcotest.test_case "passed parameter used" `Quick
            (fixture_knob "Knob.fetch ?passed" true);
          Alcotest.test_case "unpassed parameter flagged" `Quick
            (fixture_knob "Knob.fetch ?never" false);
          Alcotest.test_case "function value passes all" `Quick
            (fixture_knob "Knob.scale ?factor" true);
          Alcotest.test_case "updated field used" `Quick
            (fixture_knob "Knob.config.updated" true);
          Alcotest.test_case "unset field flagged" `Quick
            (fixture_knob "Knob.config.never_set" false);
        ] );
    ]
