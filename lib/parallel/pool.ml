(* Each result slot is written exactly once, by whichever domain
   claimed that index off the shared cursor; the slots are disjoint
   and the Domain.join at the end publishes them to the caller. *)
type 'a slot =
  | Empty
  | Ok_v of 'a
  | Exn of exn * Printexc.raw_backtrace

let run_jobs ?(domains = 1) jobs =
  if domains < 1 then invalid_arg "Parallel.Pool.run_jobs: domains < 1";
  let n = Array.length jobs in
  if n = 0 then [||]
  else begin
    let results = Array.make n Empty in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
            (match jobs.(i) () with
            | v -> Ok_v v
            | exception e -> Exn (e, Printexc.get_raw_backtrace ())));
          loop ()
        end
      in
      loop ()
    in
    let extra = min (domains - 1) (n - 1) in
    let spawned = List.init extra (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    (* index-ordered join: the lowest failing index wins, so the
       surfaced exception is independent of completion order *)
    Array.map
      (function
        | Ok_v v -> v
        | Exn (e, bt) -> Printexc.raise_with_backtrace e bt
        | Empty -> assert false)
      results
  end
