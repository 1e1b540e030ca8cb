module F = Fixture
module S = Set.Make (Fixture.Key)

let value = F.entry (S.cardinal (S.singleton 1))
let fetched = Knob.fetch ~passed:1 value
let scaled = List.map Knob.scale [ fetched ]
let config = { Knob.default with Knob.updated = List.length scaled }

(* A walk in hash order through an opened module's alias: the walker
   spells it as written, [Tbl.fold] *)
module Aliases = struct
  module Tbl = Hashtbl
end

open Aliases

let walked = Tbl.fold (fun k () acc -> k :: acc) (Tbl.create 1) []
