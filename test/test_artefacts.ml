(* Golden-artefact regression: every paper-facing output of
   bench/main.exe is pinned by its stdlib Digest (the same digests
   bench/suite/expected.ml checks).  Each test regenerates one
   artefact in-process (via Experiments.capture, which reproduces the
   CLI byte stream exactly) and compares against the digest stored in
   test/golden/artefacts.digest.

   If an output changed on purpose, refresh the golden file with

     dune exec test/refresh_artefacts.exe

   and commit the diff. *)

(* `dune runtest` runs the action in _build/default/test; `dune exec`
   keeps the invoking cwd (the repo root) *)
let golden_path =
  if Sys.file_exists "golden/artefacts.digest" then "golden/artefacts.digest"
  else "test/golden/artefacts.digest"

let golden =
  lazy
    (let ic = open_in golden_path in
     let rec loop acc =
       match input_line ic with
       | line ->
         let acc =
           (* "<32 hex chars>  <id>" *)
           match String.index_opt line ' ' with
           | Some 32 ->
             let digest = String.sub line 0 32 in
             let id =
               String.trim (String.sub line 32 (String.length line - 32))
             in
             (id, digest) :: acc
           | _ -> acc
         in
         loop acc
       | exception End_of_file ->
         close_in ic;
         List.rev acc
     in
     loop [])

let check_artefact id () =
  let expected =
    match List.assoc_opt id (Lazy.force golden) with
    | Some d -> d
    | None -> Alcotest.failf "no golden digest for %s - refresh the file" id
  in
  let run =
    match Experiments.find id with
    | Some f -> f
    | None -> Alcotest.failf "unknown experiment id %s" id
  in
  let out = Experiments.capture run in
  let actual = Digest.to_hex (Digest.string out) in
  if not (String.equal actual expected) then
    Alcotest.failf
      "artefact %s changed (%d bytes printed)@.  golden  %s@.  actual  %s@.If \
       intentional, refresh with: dune exec test/refresh_artefacts.exe"
      id (String.length out) expected actual

let ids =
  [
    "table1"; "fig3"; "fig4a"; "fig4b"; "custody"; "phases"; "backpressure";
    "protocols"; "popularity"; "overload";
  ]

let () =
  Alcotest.run "artefacts"
    [
      ( "golden",
        List.map
          (fun id -> Alcotest.test_case id `Quick (check_artefact id))
          ids );
    ]
