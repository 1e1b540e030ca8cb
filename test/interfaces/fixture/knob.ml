let fetch ?(passed = 0) ?(never = 0) x = x + passed + never
let scale ?(factor = 2) x = factor * x

type config = { updated : int; never_set : int }

let default = { updated = 0; never_set = 0 }
