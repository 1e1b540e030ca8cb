let equal_cost_paths ?(limit = 16) g s d =
  if s = d then [ Path.singleton s ]
  else begin
    (* Hop distance of every node to [d], by a BFS over in-links: a link
       (u,v) lies on a shortest path iff dist(u) = 1 + dist(v).  Each
       node enters the queue once, so an array of [n] slots holds it. *)
    let n = Graph.node_count g in
    let dist_to_dst = Array.make n max_int in
    let queue = Array.make n d in
    dist_to_dst.(d) <- 0;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let x = queue.(!head) in
      incr head;
      List.iter
        (fun (l : Link.t) ->
          let w = l.Link.src in
          if dist_to_dst.(w) = max_int then begin
            dist_to_dst.(w) <- dist_to_dst.(x) + 1;
            queue.(!tail) <- w;
            incr tail
          end)
        (Graph.in_links g x)
    done;
    if dist_to_dst.(s) = max_int then []
    else begin
      let results = ref [] in
      let count = ref 0 in
      let rec dfs u rev_links =
        if !count < limit then begin
          if u = d then begin
            match Path.of_links (List.rev rev_links) with
            | Ok p ->
              results := p :: !results;
              incr count
            | Error _ -> ()
          end
          else
            List.iter
              (fun (l : Link.t) ->
                let v = l.Link.dst in
                if
                  dist_to_dst.(v) <> max_int
                  && dist_to_dst.(u) = dist_to_dst.(v) + 1
                then dfs v (l :: rev_links))
              (Graph.out_links g u)
        end
      in
      dfs s [];
      List.rev !results
    end
  end

(* SplitMix64-style avalanche: cheap, stable, well distributed. *)
let mix64 x =
  let open Int64 in
  let x = logxor x (shift_right_logical x 30) in
  let x = mul x 0xbf58476d1ce4e5b9L in
  let x = logxor x (shift_right_logical x 27) in
  let x = mul x 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let hash_flow ~flow_id ~buckets =
  if buckets <= 0 then invalid_arg "Ecmp.hash_flow: buckets must be positive";
  let h = mix64 (Int64.of_int (flow_id + 0x9e3779b9)) in
  Int64.to_int (Int64.unsigned_rem h (Int64.of_int buckets))

let pick paths ~flow_id =
  match paths with
  | [] -> None
  | _ ->
    let i = hash_flow ~flow_id ~buckets:(List.length paths) in
    List.nth_opt paths i
