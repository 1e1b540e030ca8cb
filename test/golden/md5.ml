(* Print the MD5 digest of the file named on the command line, in hex. *)
let () = print_endline (Digest.to_hex (Digest.file Sys.argv.(1)))
