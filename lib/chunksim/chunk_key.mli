(** Packed [(flow, idx)] chunk identifiers.

    Hot-path tables (custody, popularity LRU, conservation ledgers)
    key on a single immediate int instead of an [(int * int)] tuple:
    tuple keys allocate two words per lookup and push [Hashtbl]
    through the generic structural hasher, both of which show up on
    the per-chunk protocol path.  Packing also preserves order —
    ascending packed keys coincide with lexicographic [(flow, idx)]
    order (both components non-negative), which crash/wipe reporting
    relies on when it sorts wiped custody.

    Layout: flow in the high bits, idx in the low {!bits}.  Flow and
    chunk ids are small dense non-negative ints everywhere in this
    codebase; [idx] must fit in {!bits} bits. *)

val bits : int
(** Low-field width (31). *)

val pack : flow:int -> idx:int -> int
val flow : int -> int
val idx : int -> int
