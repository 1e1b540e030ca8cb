(** Priority queue of timestamped events (binary min-heap).

    Events order by the four keys (time, epoch, stamp, seq): ties on
    time break by scheduling epoch, then by stamp, then by insertion
    sequence number, so simultaneous events run FIFO in scheduling
    order — important for reproducibility of the discrete-event
    simulators.
    The epoch is the (virtual) instant the event was scheduled at:
    callers that push with [~epoch] equal to their current clock get
    plain FIFO order, while a caller that knows an event would have
    been scheduled at a later instant by an equivalent eager process
    may push it early and still occupy the same slot among same-time
    ties (the interface transmitter depends on this).  Cancellation is
    O(1) lazy: cancelled handles are skipped when they surface, and
    the heap is compacted in place once cancelled entries outnumber
    live ones.  [size] and [is_empty] are O(1): the handle carries the
    queue's counters and updates them at cancel time.  Sifting moves
    unboxed keys only, so it needs no write barrier.  A pop leaves the
    root vacant and the next push fills it with a single sift down;
    pop order does not depend on when the vacancy is closed. *)

type 'a t

type handle
(** Token for cancelling a scheduled event. *)

type stats = {
  scheduled : int;   (** total entries ever pushed *)
  cancelled : int;   (** total cancel calls on live handles *)
  compacted : int;   (** heap compaction sweeps performed *)
}

val create : unit -> 'a t

val push : ?epoch:float -> 'a t -> time:float -> 'a -> handle
(** [epoch] is the instant this event was scheduled (default
    [neg_infinity], which reduces tie order to plain insertion order).
    Its stamp is its own insertion number.
    @raise Invalid_argument if [time] is NaN. *)

val next_stamp : 'a t -> int
(** The stamp the next push will receive — capture it to order later
    {!push_held} calls as if they happened now. *)

val cancel : handle -> unit
(** Idempotent.  O(1): adjusts the owning queue's live count through
    the handle; the entry itself is removed lazily. *)

val is_cancelled : handle -> bool

val pop : 'a t -> (float * 'a) option
(** Earliest live event, removed.  [None] when empty. *)

val pop_before : 'a t -> horizon:float -> none:'a -> 'a
(** Earliest live event, removed, provided its time is [<= horizon];
    [none] (compare physically) when empty or the next event lies
    beyond the horizon.  The popped time goes to {!last_pop} instead of
    being returned, so the pop allocates nothing.  Pass [infinity] for
    an unbounded pop. *)

val last_pop : 'a t -> float array
(** Two cells, written by every successful pop: its time and epoch
    (NaN before the first).  The queue never reads them, so its owner
    may keep its clock there (the engine does). *)

val peek_time : 'a t -> float option
(** Time of the earliest live event without removing it. *)

val size : 'a t -> int
(** Live (non-cancelled) entries, held ones included.  O(1), no side
    effects. *)

val is_empty : 'a t -> bool
(** O(1). *)

val stats : 'a t -> stats
(** Scheduling / cancellation / compaction counters since [create]. *)

(** {1 Held events}

    Events that are never cancelled go through {!push_held}, which
    shares one sentinel handle instead of allocating one per event.  A
    caller may also hold such an event back and push it later with the
    keys it would have had (the engine's lanes do).  Pop order is a function of
    the keys alone, so it is exactly that of pushing the event at once,
    provided it enters the heap before anything that sorts after it
    pops. *)

val take_seq : 'a t -> int
(** The insertion number of a new held event, which counts as live
    (see {!size}) and scheduled from now on. *)

val push_held :
  'a t -> float array -> int -> stamp:int -> seq:int -> 'a -> unit
(** [push_held q keys i ~stamp ~seq v] pushes a held event that will
    never be cancelled: its time and epoch are [keys.(i)] and
    [keys.(i+1)], and [seq] came from {!take_seq}.  [stamp] (see
    {!next_stamp}) is the penultimate tie-break, letting a lazy caller
    order an event as if it had been pushed when its causal chain
    began.  The caller checks the keys: [time] must not be NaN. *)
