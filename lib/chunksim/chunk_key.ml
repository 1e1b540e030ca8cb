let bits = 31
let max_idx = (1 lsl bits) - 1
let pack ~flow ~idx = (flow lsl bits) lor (idx land max_idx)
let flow k = k lsr bits
