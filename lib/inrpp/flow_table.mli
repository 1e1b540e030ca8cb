(** Per-flow forwarding state, compacted.

    The router keeps one entry per flow crossing it: next hops for
    data and requests, five back-pressure/fail-over flags, the flowlet
    pin and a per-(flow, link) hot cache.  This module owns that state
    as an int-indexed struct-of-arrays: packed int fields for identity
    and next hops (link {e ids}, [-1] = none), a one-byte flag
    bitfield per slot, unboxed float timestamps for the flowlet clock,
    and free-list recycling of released slots.  Steady-state cost is a
    few dozen bytes per flow, measured and frozen by the flow-state
    gate in [test/test_inrpp.ml].

    The flow id -> slot index allocates nothing per entry: a
    [buckets] array holds each bucket's head slot and a per-slot
    [chain] array, grown with the other slot arrays, links the slots
    of one bucket.  It follows the stdlib [Hashtbl] policy step for
    step: 16 buckets to start, bucket [Hashtbl.hash flow land
    (buckets - 1)], an install prepends to its bucket, the buckets
    double when live entries exceed twice their number, each chain
    keeping its order as the stdlib in-place resize does, and a
    release unlinks.  {!iter} walks the buckets in ascending order and
    each chain from its head, so its order — observable through the
    drain and fault loops — is that of a stdlib [Hashtbl] created at
    size 16 and fed the same installs and releases.

    Next hops are stored as link ids rather than [Link.t] to keep a
    slot at two words; resolve through [Topology.Graph.link] (O(1),
    returns the canonical physical link). *)

(** Flowlet pinning (Sinha et al., cited by the paper for detour
    granularity): a flow's packets within one burst stay on one route
    to avoid reordering. *)
type route =
  | Primary
  | Via of int  (** detour through this first-hop node *)

type 'hot t
(** ['hot] is the router's per-(flow, link) hot-cache record; the
    table stores it opaquely. *)

val create : gap:float -> unit -> 'hot t
(** [gap] is the flowlet idle gap (see {!flowlet_choose}).
    @raise Invalid_argument if [gap < 0]. *)

val find : 'hot t -> int -> int
(** [find t flow] is the flow's slot, or [-1] when not installed. *)

val install :
  'hot t -> flow:int -> content:int -> data_link:int -> req_link:int -> int
(** Install (or reinstall) a flow; returns its slot.  A reinstall
    keeps the slot and the flowlet pin but resets links, flags and the
    hot cache.
    @raise Invalid_argument if [flow < 0]. *)

val release : 'hot t -> flow:int -> unit
(** Free the flow's slot onto the free list (counted in {!recycled});
    a later {!install} may hand the slot to a different flow.  No-op
    when the flow is not installed. *)

val flow_of : 'hot t -> int -> int
(** Inverse of {!find} for live slots. *)

val content : 'hot t -> int -> int

val data_link : 'hot t -> int -> int
(** Next-hop link id towards the consumer; [-1] = none (consumer node). *)

val req_link : 'hot t -> int -> int
(** Next-hop link id towards the producer; [-1] = none (producer node). *)

val set_links : 'hot t -> int -> data_link:int -> req_link:int -> unit

val bp_local : 'hot t -> int -> bool
val set_bp_local : 'hot t -> int -> bool -> unit
val bp_forwarded : 'hot t -> int -> bool
val set_bp_forwarded : 'hot t -> int -> bool -> unit
val detour_override : 'hot t -> int -> bool
val set_detour_override : 'hot t -> int -> bool -> unit
val bp_outage : 'hot t -> int -> bool
val set_bp_outage : 'hot t -> int -> bool -> unit
val failed_over : 'hot t -> int -> bool
val set_failed_over : 'hot t -> int -> bool -> unit

val hot : 'hot t -> int -> 'hot option
val set_hot : 'hot t -> int -> 'hot option -> unit

val flowlet_choose : 'hot t -> int -> now:float -> preferred:route -> route
(** Per-slot flowlet pinning: the first call pins [preferred]; later
    calls return the pin, replacing it with [preferred] only after an
    idle gap longer than [gap].  Every call updates the slot's
    last-packet time. *)

val iter : 'hot t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f flow slot] for every live entry, in stdlib
    hashtable order (see module doc).  [f] may read and set a slot's
    fields but must not {!install} or {!release}. *)

val live : _ t -> int
(** Installed entries right now. *)

val peak : _ t -> int
(** High-water mark of {!live} over the table's lifetime. *)

val recycled : _ t -> int
(** Slots returned to the free list by {!release}. *)

val approx_bytes : _ t -> int
(** Estimated retained heap for the per-flow state (slot arrays at
    current capacity, the index's chain among them, plus its bucket
    array).  An accounting estimate for gauges and reports — the
    frozen bytes/flow figure comes from the flow-state gate's
    live-words measurement, not from this. *)
