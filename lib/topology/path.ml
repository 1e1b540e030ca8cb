type t = {
  nodes : Node.id list;
  links : Link.t list;
}

let singleton u = { nodes = [ u ]; links = [] }

let of_links ls =
  match ls with
  | [] -> Error "Path.of_links: empty link list"
  | first :: _ ->
    let rec walk acc_nodes prev = function
      | [] -> Ok (List.rev acc_nodes)
      | (l : Link.t) :: rest ->
        if l.Link.src <> prev then
          Error
            (Printf.sprintf "Path.of_links: discontinuity at %d (link %d->%d)"
               prev l.Link.src l.Link.dst)
        else walk (l.Link.dst :: acc_nodes) l.Link.dst rest
    in
    begin match walk [ first.Link.src ] first.Link.src ls with
    | Error _ as e -> e
    | Ok nodes -> Ok { nodes; links = ls }
    end

let src p = List.hd p.nodes

let hops p = List.length p.links

(* [prev] is -1 at the source, which has no reverse link; the node
   that runs out of links is the last *)
let iter_hops g p f =
  let rec walk prev nodes links =
    match nodes with
    | [] -> ()
    | node :: nodes -> (
      let req_link = if prev < 0 then None else Graph.find_link g node prev in
      match links with
      | l :: links ->
        f node ~data_link:(Some l) ~req_link;
        walk node nodes links
      | [] -> f node ~data_link:None ~req_link)
  in
  walk (-1) p.nodes p.links

let unloaded_latency ~chunk_bits p =
  List.fold_left
    (fun acc (l : Link.t) ->
      acc +. l.Link.delay +. (chunk_bits /. l.Link.capacity))
    0. p.links
