(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue of closures.
    Handlers run strictly in time order (FIFO among simultaneous
    events) and may schedule further events.  Time never goes
    backwards: scheduling into the past raises.  Events order by the
    four keys (time, epoch, stamp, seq) of {!Event_queue}: an ordinary
    schedule takes [now] as its epoch and its insertion number as its
    stamp, and only {!lane_push} sets the two keys itself. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time, seconds.  Starts at [0.]. *)

type clock = private float array
(** The engine's clock cells: [now], then the scheduling epoch of the
    event currently being executed — the instant at which it was
    scheduled, the key that orders it among same-time ties (see
    {!Event_queue}).  The epoch is [infinity] when no event is
    executing (before the first event and after {!run} returns having
    drained or reached its horizon), meaning every event at or before
    [now] has already run.  Read the cells through a coercion,
    [(c :> float array).(0)]; the type forbids writes. *)

val clock_cells : t -> clock
(** The engine's clock, which every event updates in place.  A hot
    caller in another module reads it here: a float returned by {!now}
    is boxed under [-opaque], a float read from the array is not. *)

val schedule : t -> delay:float -> (unit -> unit) -> Event_queue.handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument if [delay < 0.] or NaN. *)

val schedule_at : t -> time:float -> (unit -> unit) -> Event_queue.handle
(** Absolute-time variant.  @raise Invalid_argument if
    [time < now t]. *)

val stamp : t -> int
(** Monotone scheduling stamp (the next event-queue insertion number).
    Capture it when a causal chain begins and pass it to
    {!lane_push} so later lazy schedules order among full ties as if
    pushed when the chain began. *)

val cancel : Event_queue.handle -> unit

(** {1 Timers}

    A timer is one owner's reusable, never-cancelled event with a fixed
    callback.  Arming it pushes exactly the keys {!schedule} would
    (epoch [now], a fresh stamp), so a timer fires where the same
    [schedule] would have, but an arm allocates no closure and no
    handle.  Only events that are never cancelled may use one. *)

type timer

val timer : t -> (unit -> unit) -> timer
(** A timer that runs the callback each time it fires. *)

val arm : timer -> delay:float -> unit
(** [arm tm ~delay] fires [tm] once at [now +. delay].  A timer armed
    again before it fires fires once per arm.
    @raise Invalid_argument if [delay < 0.] or NaN. *)

val schedule_periodic : t -> interval:float -> (unit -> bool) -> unit
(** [schedule_periodic t ~interval f] runs [f] every [interval]
    seconds starting at [now + interval], until [f] returns [false].
    @raise Invalid_argument if [interval <= 0.]. *)

(** {1 Lanes}

    A lane is a FIFO of never-cancelled events for one handler, with
    strictly increasing times.  Only its head sits in the event queue,
    and every event keeps the tie-break keys it was pushed with, so
    events run exactly as if each were scheduled on its own (see
    {!Event_queue.push_held}).  Each interface keeps its packets on the wire
    in one lane.

    A lane keeps its items in pages of a fixed number of slots, drawn
    from a {!pool} that many lanes may share.  A lane hands each page
    it has consumed whole back to its pool and keeps only its tail
    page once it drains, so the pages in use follow the items pending
    across all the pool's lanes, not each lane's own peak.  The pool
    threads its free pages through the pages themselves: once its
    pages exist, pushes and pops allocate nothing. *)

type 'a pool

val pool : filler:'a -> 'a pool
(** An empty pool; it makes a page when a lane needs one and none is
    free, and keeps every page it has made.  Each slot a lane pops is
    overwritten with [filler], so a page keeps no item it has handed
    over alive, and a page back in the pool holds only [filler]. *)

type 'a lane

val lane : 'a pool -> t -> ('a -> unit) -> 'a lane
(** An empty lane, holding no page, whose events run the handler on
    their item. *)

val set_lane_handler : 'a lane -> ('a -> unit) -> unit
(** Replace the handler, for an owner whose handler closes over a
    record that holds the lane. *)

val lane_push : 'a lane -> float array -> stamp:int -> 'a -> unit
(** [lane_push l keys ~stamp v] schedules the handler on [v] at
    [time = keys.(0)].  Ties break on [epoch = keys.(1)], the instant
    the event counts as scheduled (it may lie in the past: a lazy
    caller pushes what an eager process would have pushed then), on
    [stamp] (see {!stamp}), then on push order.  The caller owns
    [keys] and may reuse it at once: the lane copies the two cells,
    and passing them in an array keeps them unboxed.
    @raise Invalid_argument unless [now <= time], [epoch <= time] and
    [time] exceeds every time the lane still holds. *)

val lane_length : 'a lane -> int
(** Events pushed and not yet run; {!pending} counts them too. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue.  Stops when empty, when the next event is later
    than [until], or after [max_events] handled events (a runaway
    guard; default 100 million).  When stopped by [until], the clock
    is advanced to [until]. *)

val step : t -> bool
(** Process exactly one event; [false] when the queue is empty. *)

val pending : t -> int
(** Live scheduled events, lane-held ones included.  O(1). *)

val events_handled : t -> int
(** Total events processed since creation. *)

(** {1 Self-profiler}

    Attribute wall-clock and minor-heap allocation per event kind.
    Kinds are interned ids claimed by handlers: a handler calls
    {!profile_mark} with its kind at the top of its closure, and the
    run loop — only while profiling is on — measures the clock and
    [Gc.minor_words] around each event and accrues the deltas under
    the claimed kind (id 0, ["other"], when nothing marked).  While
    profiling is off both [profile_mark] and the run loop cost one
    branch per call and allocate nothing, so an unprofiled run is
    bit-identical and alloc-identical to an uninstrumented one. *)

val profile_kind : t -> string -> int
(** Intern a kind name (setup time); returns its id.  Idempotent per
    name. *)

val profile_mark : t -> int -> unit
(** Claim the currently executing event for the kind.  No-op while
    profiling is off. *)

val profile_start : ?clock:(unit -> float) -> t -> unit
(** Enable measurement.  [clock] (default [Sys.time]) supplies wall
    time; pass [Unix.gettimeofday] from layers that link unix. *)

val profile_stop : t -> unit

val profiling : t -> bool

val profile_rows : t -> (string * int * float * float) list
(** [(kind, events, wall_seconds, minor_words)] per kind with at least
    one event, registration order. *)
