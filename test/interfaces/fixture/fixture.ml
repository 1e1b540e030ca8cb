let planted x = x + 1
let helper x = 2 * x
let entry x = helper x + 1

module Key = struct
  type t = int

  let compare = Int.compare
end
