type t = Topology.Detour.Table.t

let create ?(max_intermediate = 2) g =
  Topology.Detour.Table.create ~max_intermediate g
