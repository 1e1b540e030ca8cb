(** Content store with custody semantics (the paper's core idea).

    Two regions share one byte budget:

    - the {e custody} region holds in-flight chunks the router accepted
      responsibility for during a back-pressure episode; FIFO per flow;
      never evicted, only handed downstream ({!commit_custody});
    - the {e popularity} region is a plain LRU of chunks already
      forwarded, serving later requests for the same content (classic
      ICN caching).

    Custody admission respects high/low watermarks over the custody
    region: crossing high engages back-pressure upstream; dropping
    below low releases it (hysteresis avoids signal flapping). *)

type t

(** {1 Admission policy}

    Custody admission is policy-pluggable: a predicate decides whether
    an offered chunk may enter the custody region, given a snapshot of
    store pressure.  Without a policy (the default) every
    chunk is admitted while capacity lasts (drop-tail), and no pressure
    snapshot is computed. *)

type pressure = {
  capacity : float;       (** total store budget, bits *)
  free : float;           (** unallocated bits (both regions) *)
  custody_bits : float;   (** custody-region occupancy, bits *)
  flow_bits : float;      (** custody bits held for the offering flow *)
  flow_backlog : int;     (** custody chunks held for the offering flow *)
  incoming_bits : float;  (** size of the offered chunk *)
  flows : int;            (** flows currently holding custody *)
}
(** Store state at the moment of an admission decision. *)

type policy = pressure -> bool
(** [true] admits the offered chunk. *)

val object_runs : ?threshold:float -> unit -> policy
(** Object-granularity admission (after {e Object-oriented Packet
    Caching for ICN}): chunks continuing a custody run the store
    already holds for the flow are always admitted — a partial object
    is useless downstream — while {e new} runs are refused once custody
    occupancy would exceed [threshold] (fraction of capacity, default
    0.6).
    @raise Invalid_argument unless [0 < threshold <= 1]. *)

val fair_share : unit -> policy
(** Per-flow fairness cap (after {e FairCache}): a flow may not grow
    its custody footprint past an equal split of the store across the
    flows currently holding custody.  A flow with no footprint always
    gets its first chunk. *)

val high_water : float
(** 0.7: custody occupancy, as a fraction of capacity, at or above
    which {!above_high} holds (back-pressure engages). *)

val low_water : float
(** 0.3: custody occupancy, as a fraction of capacity, at or below
    which {!below_low} holds (back-pressure releases). *)

val create : ?policy:policy -> capacity:float -> unit -> t
(** [capacity] in bits.  [policy] guards custody admission; omit it
    for drop-tail, which admits while capacity lasts.
    @raise Invalid_argument if [capacity <= 0.]. *)

(** {1 Custody region} *)

val put_custody :
  t -> flow:int -> idx:int -> bits:float -> [ `Stored | `Full | `Rejected ]
(** [`Full] when the whole store cannot take the chunk — the caller
    must then drop (congestion collapse would follow; tests assert we
    engage back-pressure well before).  [`Rejected] when the admission
    policy refused the chunk (store may still have room); never
    returned without an installed policy. *)

val peek_custody : t -> flow:int -> int
(** Index of the flow's oldest held chunk, {e not} removed; [-1] when
    the flow holds none.  Pair with {!commit_custody} to keep an
    in-flight handoff charged against the store budget until it is
    known to succeed.  Allocates nothing. *)

val commit_custody : t -> flow:int -> unit
(** Removes the chunk {!peek_custody} returned, releasing its budget.
    @raise Invalid_argument if the flow holds no custody chunk. *)

val custody_backlog : t -> flow:int -> int
(** Chunks currently held for the flow. *)

val custody_occupancy : t -> float
(** Bits across all flows. *)

val custody_is_empty : t -> bool
(** O(1): no flow holds any custody chunk.  The drain scheduler's
    fast-out — avoids walking flow lists four times per [ti] when the
    store is idle (the common case). *)

val above_high : t -> bool
val below_low : t -> bool
val custody_flows : t -> int array ref -> int
(** [custody_flows t buf] writes the flows holding custody into [!buf],
    ascending, and returns their number.  The store keeps that list in
    order as flows gain their first chunk and lose their last, so this
    is one O(n) copy with no sort.  [!buf] is replaced only when too
    short, so a caller keeping [buf] snapshots without allocating. *)

(** {1 Popularity (LRU) region}

    Entries live in slot arrays (key, bits, and newer/older links that
    thread the LRU through them), and a private open-addressing index
    maps a packed {!Chunk_key} to its slot: linear probing from a
    multiplicative hash, at most half full, removal by backward shift.
    Lookup, insert and each eviction take expected O(1) time.  A new
    store has no slots; the arrays double (from 8) when every slot is
    taken, and once they have grown the region allocates nothing.  The
    index is never iterated, so its hash order cannot reach any
    output. *)

val insert_popular : t -> flow:int -> idx:int -> bits:float -> unit
(** Adds to the LRU region, evicting least-recently-used entries if
    needed; never evicts custody. A chunk bigger than the free budget
    after eviction is simply not cached. *)

val lookup_popular : t -> flow:int -> idx:int -> bool
(** True on hit; refreshes recency. *)

val popular_occupancy : t -> float

(** {1 Stats} *)

val occupancy : t -> float
val capacity : t -> float
