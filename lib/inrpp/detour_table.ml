module Path = Topology.Path
module Link = Topology.Link

type candidate = {
  first_link : Link.t;
  rest : Topology.Node.id list;
  links : Link.t list;
  hops : int;
}

type t = {
  table : Topology.Detour.Table.t;
  cache : (int, candidate list) Hashtbl.t;
}

let create ?(max_intermediate = 2) g =
  {
    table = Topology.Detour.Table.create ~max_intermediate g;
    cache = Hashtbl.create 64;
  }

let candidates t (l : Link.t) =
  match Hashtbl.find_opt t.cache l.Link.id with
  | Some cs -> cs
  | None ->
    let ds = Topology.Detour.Table.find t.table l in
    let cs =
      List.filter_map
        (fun (_, dpath) ->
          match dpath.Path.links with
          | [] -> None
          | first :: _ ->
            (* nodes after the first hop: drop src and the first
               intermediate *)
            let rest =
              match dpath.Path.nodes with
              | _ :: _ :: rest -> rest
              | _ -> []
            in
            Some
              {
                first_link = first;
                rest;
                links = dpath.Path.links;
                hops = Path.hops dpath;
              })
        ds
    in
    Hashtbl.add t.cache l.Link.id cs;
    cs

