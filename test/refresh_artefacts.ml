(* Regenerate test/golden/artefacts.digest.

   Usage (from the repo root):

     dune exec test/refresh_artefacts.exe

   Runs each paper-artefact experiment in-process (same closures the
   golden regression test replays), digests the captured stdout, and
   rewrites the golden file.  Review the resulting diff before
   committing: a changed digest means the printed artefact changed. *)

let artefacts =
  [
    "table1"; "fig3"; "fig4a"; "fig4b"; "custody"; "phases"; "backpressure";
    "protocols"; "popularity"; "overload";
  ]

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else "test/golden/artefacts.digest"
  in
  let oc = open_out path in
  List.iter
    (fun id ->
      let run =
        match Experiments.find id with
        | Some f -> f
        | None -> failwith ("unknown experiment id " ^ id)
      in
      let digest = Digest.to_hex (Digest.string (Experiments.capture run)) in
      Printf.fprintf oc "%s  %s\n" digest id;
      Printf.printf "%s  %s\n%!" digest id)
    artefacts;
  close_out oc;
  Printf.printf "wrote %s\n" path
