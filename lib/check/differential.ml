type verdict = { equal : bool; detail : string }

let sweep ?(domains = 1) ~seeds f =
  (* per-seed runs are independent; fan them across domains and fold
     the verdicts in seed-list order so the summary (including which
     divergence is "first") is identical at any domain count *)
  let verdicts = Parallel.Pool.map_list ~domains (fun seed -> f ~seed) seeds in
  let failures =
    List.filter_map (fun v -> if v.equal then None else Some v.detail) verdicts
  in
  match failures with
  | [] -> { equal = true; detail = Printf.sprintf "%d seeds equal" (List.length seeds) }
  | d :: _ ->
    {
      equal = false;
      detail = Printf.sprintf "%d/%d seeds diverged; first: %s"
          (List.length failures) (List.length seeds) d;
    }
