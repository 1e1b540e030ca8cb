(** Per-flow forwarding state, compacted.

    The router keeps one entry per flow crossing it: next hops for
    data and requests, five back-pressure/fail-over flags and the
    flowlet pin.  This module owns that state as 12-byte slot records
    in [Bytes] pages of 1024 slots: the flow id at int32; the index
    chain as a 24-bit field holding slot + 1 (0 = end) beside a
    one-byte flag bitfield; and both next hops as unsigned 16-bit port
    indices holding port + 1 (0 = none).  A flow's content key, the
    same at every router, is held once a run ({!Router.create}).  The
    flowlet clock and pinned route live outside the slot, in an
    unboxed float page and an int32 page allocated beside a slot page
    when the first slot in it pins a flowlet; a page without them reads
    as unpinned, so a table that never detours holds no flowlet bytes.
    Released slots are recycled through a free list.  The GC scans
    none of it.  The first page grows by doubling from 16 slots, so a
    table of a few hundred flows stays small; past one page, growth
    adds a page and copies no slot, so a large table keeps under one
    page of slack and leaves no old copy for the GC.  A growth that would pass 2^24 - 1 slots (the
    chain's reach) raises [Invalid_argument].  Steady-state cost is
    about 19 bytes per flow, measured and frozen by the flow-state gate
    in [test/test_inrpp.ml], which also bounds what a 250k-flow ramp
    allocates.

    The flow id -> slot index allocates nothing per entry: an int32
    bucket array holds each bucket's head slot and each slot's chain
    field links the slots of one bucket.  It follows the stdlib
    [Hashtbl] policy step for step: 16 buckets to start, bucket
    [Hashtbl.hash flow land (buckets - 1)], an install prepends to its
    bucket, the buckets double when live entries exceed twice their
    number, each chain keeping its order as the stdlib in-place resize
    does, and a release unlinks.  {!iter} walks the buckets in
    ascending order and each chain from its head, so its order —
    observable through the drain and fault loops — is that of a stdlib
    [Hashtbl] created at size 16 and fed the same installs and
    releases.

    Two shortcuts skip walks whose answer is already known, and change
    no result.  The table keeps the largest flow id ever added: an
    install of a flow above it cannot be a reinstall, so it skips the
    absence walk.  Flow ids handed out in ascending order, as the
    protocol does, never walk on install.  And {!find} keeps a
    one-entry memo of the last flow it found with its slot.  Slots
    never move (the index only relinks chains and growth keeps every
    slot's number), so the memo stays exact until {!release} of that
    flow clears it.

    Next hops are stored as the router's port indices rather than
    [Link.t] to keep the pages free of pointers; the router resolves
    one through its own port array.  The table only stores them.  Flow
    ids and flowlet routes must fit in int32, and port
    indices in [-1, 65534] (u16 less the none code): a call that would
    store one outside raises [Invalid_argument] before it writes
    anything, and {!find} or {!release} of a flow id outside finds
    nothing.  Every accessor given a slot outside the table's capacity
    raises too. *)

(** Flowlet pinning (Sinha et al., cited by the paper for detour
    granularity): a flow's packets within one burst stay on one route
    to avoid reordering. *)
type route =
  | Primary
  | Via of int  (** detour through this first-hop node *)

type t

val create : gap:float -> unit -> t
(** [gap] is the flowlet idle gap (see {!flowlet_choose}).
    @raise Invalid_argument if [gap < 0]. *)

val find : t -> int -> int
(** [find t flow] is the flow's slot, or [-1] when not installed.  A
    repeat of the last flow found costs no index walk. *)

val add : t -> flow:int -> int
(** The flow's slot, found, or taken fresh (ports [-1], flags clear,
    no flowlet pin) when the flow is not installed.  A caller that
    must read a reinstalled slot's flags before {!set_entry} resets
    them pays one index walk, not two; a flow above every id the table
    has held pays none.
    @raise Invalid_argument if [flow < 0] or [flow] is outside int32. *)

val set_entry : t -> int -> data_port:int -> req_port:int -> unit
(** Set a slot's ports and clear its flags: the reset half of a
    (re)install, which keeps the slot's flowlet pin.  [data_port] and
    [req_port] are the router's port indices of the next hops ([-1] =
    none).
    @raise Invalid_argument if a port is outside its width, before
    anything is written. *)

val release : t -> flow:int -> int
(** Free the flow's slot onto the free list (counted in {!recycled})
    and return it, or [-1] (a no-op) when the flow is not installed.
    The freed slot's fields other than its flow id keep their values
    until a later {!add} hands the slot out again, so a caller may
    read its flags right after the release. *)

val data_port : t -> int -> int
(** Next-hop port index towards the consumer; [-1] = none (consumer
    node). *)

val req_port : t -> int -> int
(** Next-hop port index towards the producer; [-1] = none (producer
    node). *)

val set_ports : t -> int -> data_port:int -> req_port:int -> unit
(** @raise Invalid_argument if a port is outside its width. *)

val bp_local : t -> int -> bool
val set_bp_local : t -> int -> bool -> unit
val bp_forwarded : t -> int -> bool
val set_bp_forwarded : t -> int -> bool -> unit
val detour_override : t -> int -> bool
val set_detour_override : t -> int -> bool -> unit
val bp_outage : t -> int -> bool
val set_bp_outage : t -> int -> bool -> unit
val failed_over : t -> int -> bool
val set_failed_over : t -> int -> bool -> unit

val flowlet_choose : t -> int -> now:float -> preferred:route -> route
(** Per-slot flowlet pinning: the first call pins [preferred]; later
    calls return the pin, replacing it with [preferred] only after an
    idle gap longer than [gap].  Every call updates the slot's
    last-packet time.  A slot's page gets its flowlet clocks and routes
    at its first call.
    @raise Invalid_argument if [preferred] is [Via v] with [v] outside
    int32. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f flow slot] for every live entry, in stdlib
    hashtable order (see module doc).  [f] may read and set a slot's
    fields but must not {!add} or {!release}. *)

val iter_bp : t -> forwarded:bool -> (int -> int -> unit) -> unit
(** [iter_bp t ~forwarded f] is {!iter} restricted to the entries with
    {!bp_local} set, or, when [forwarded], with {!bp_local} or
    {!bp_forwarded} set: the same order, and each flag read as the walk
    reaches its slot.  The same rules bind [f]. *)

val live : t -> int
(** Installed entries right now. *)

val peak : t -> int
(** High-water mark of {!live} over the table's lifetime. *)

val recycled : t -> int
(** Slots returned to the free list by {!release}. *)

val approx_bytes : t -> int
(** Retained heap for the per-flow state: the slot pages at current
    capacity, the flowlet pages of the pages that pinned, the int32
    bucket array, the page directories, and the block headers and the
    table record.  An accounting
    figure for gauges and reports; the flow-state gate checks it
    against its live-words measurement, which is what it freezes. *)
