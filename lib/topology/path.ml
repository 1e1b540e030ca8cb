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
