(** Per-flow forwarding state, compacted.

    The router keeps one entry per flow crossing it: next hops for
    data and requests, the data link's port, five
    back-pressure/fail-over flags and the flowlet pin.  This module
    owns that state as one slab of fixed-stride slot records in a
    single [Bytes] block: flow id and content at 63 bits; the index
    chain, both next-hop link ids ({e ids}, [-1] = none), the data
    link's port index and the flowlet route at int32; and a one-byte
    flag bitfield.  The flowlet clock sits beside the slab in an
    unboxed float array, and released slots are recycled through a
    free list.  The GC scans none of it, and growth is a copy of
    bytes.  Steady-state cost is a few dozen bytes per flow, measured
    and frozen by the flow-state gate in [test/test_inrpp.ml].

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

    Next hops are stored as link ids rather than [Link.t] to keep the
    slab free of pointers; resolve through [Topology.Graph.link] (O(1),
    returns the canonical physical link).  Link ids, port indices and
    flowlet routes must fit in int32: a setter given one outside
    raises [Invalid_argument] before it writes anything.  So does
    every accessor given a slot outside the slab. *)

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
(** [find t flow] is the flow's slot, or [-1] when not installed. *)

val install :
  t -> flow:int -> content:int -> data_link:int -> req_link:int ->
  data_port:int -> int
(** Install (or reinstall) a flow; returns its slot.  A reinstall
    keeps the slot and the flowlet pin but resets content, links and
    flags.  [data_port] is the router's index of [data_link]'s port
    ([-1] = none); the table only stores it.  [install] is {!add}
    followed by {!set_entry}.
    @raise Invalid_argument if [flow < 0] or an id is outside int32. *)

val add : t -> flow:int -> int
(** The flow's slot, found, or taken fresh (content the flow id, links
    and port [-1], flags clear, no flowlet pin) when the flow is not
    installed.  A caller that must read a reinstalled slot's flags
    before {!set_entry} resets them pays one index walk, not two.
    @raise Invalid_argument if [flow < 0]. *)

val set_entry :
  t -> int -> content:int -> data_link:int -> req_link:int ->
  data_port:int -> unit
(** Set a slot's content and links and clear its flags: the reset half
    of a (re)install.
    @raise Invalid_argument if an id is outside int32. *)

val release : t -> flow:int -> int
(** Free the flow's slot onto the free list (counted in {!recycled})
    and return it, or [-1] (a no-op) when the flow is not installed.
    The freed slot's fields other than its flow id keep their values
    until a later {!install} hands the slot out again, so a caller may
    read its flags right after the release. *)

val flow_of : t -> int -> int
(** Inverse of {!find} for live slots. *)

val content : t -> int -> int

val data_link : t -> int -> int
(** Next-hop link id towards the consumer; [-1] = none (consumer node). *)

val req_link : t -> int -> int
(** Next-hop link id towards the producer; [-1] = none (producer node). *)

val data_port : t -> int -> int
(** The port index stored with {!data_link}; [-1] = none. *)

val set_links :
  t -> int -> data_link:int -> req_link:int -> data_port:int -> unit
(** @raise Invalid_argument if an id is outside int32. *)

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
    last-packet time.
    @raise Invalid_argument if [preferred] is [Via v] with [v] outside
    int32. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f flow slot] for every live entry, in stdlib
    hashtable order (see module doc).  [f] may read and set a slot's
    fields but must not {!install} or {!release}. *)

val live : t -> int
(** Installed entries right now. *)

val peak : t -> int
(** High-water mark of {!live} over the table's lifetime. *)

val recycled : t -> int
(** Slots returned to the free list by {!release}. *)

val approx_bytes : t -> int
(** Retained heap for the per-flow state: the slab and the flowlet
    clock at current capacity, the int32 bucket array, and a fixed
    allowance for block headers and the table record.  An accounting
    figure for gauges and reports; the flow-state gate checks it
    against its live-words measurement, which is what it freezes. *)
