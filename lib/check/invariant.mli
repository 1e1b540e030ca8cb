(** Runtime invariant checkers over the simulator's tap points.

    A collector accumulates violations; checkers are either streaming
    trace handlers (register them on a {!Chunksim.Trace} with
    {!Chunksim.Trace.on_record}, or on an [Obs] sink chain through
    [Obs.Sink.callback]) or periodic probes driven by {!probe}.
    [Inrpp.Protocol.run ?check] wires all of them up for a protocol
    run; the differential harness and the soak test build on the same
    pieces.

    A clean run ends with {!ok} true; {!report} renders the retained
    violations for test failure messages. *)

type violation = { time : float; checker : string; detail : string }

type t

val create : ?limit:int -> unit -> t
(** [limit] (default 64) bounds the retained violation list; the
    total count keeps incrementing past it. *)

val violate : t -> time:float -> checker:string -> string -> unit

val on_violation : t -> (violation -> unit) -> unit
(** Register a callback fired on {e every} violation, including ones
    past [limit] — the hook the flight recorder ({!Obs.Recorder})
    dumps from.  At most one callback; the last registration wins. *)

val violations : t -> violation list
(** Oldest first, at most [limit]. *)

val ok : t -> bool
val report : t -> string

val add_probe : t -> (float -> unit) -> unit
(** Register a check to run on every {!probe} (called with the probe
    time). *)

val probe : t -> time:float -> unit
(** Run all registered probes.  The protocol layer calls this from its
    existing estimator tick, so probing adds no engine events. *)

(** {1 Streaming trace checkers}

    Each constructor returns a handler closed over its own state;
    route it to a trace directly ({!Chunksim.Trace.on_record}) or
    through the observability layer ([Obs.Sink.callback]). *)

val phase_legality : t -> float -> Chunksim.Trace.event -> unit
(** Interface phase machine (DESIGN §1): every recorded transition
    moves to a {e different} phase (each phase may move to either of
    the other two; self-transitions must not be recorded), and the
    implicit initial state is push-data.  A [Node_fault] crash resets
    the node's interfaces to push-data (a restarted router starts from
    scratch). *)

val bp_ordering : t -> float -> Chunksim.Trace.event -> unit
(** Back-pressure propagation ordering: per (node, flow) at most two
    engages outstanding (local + relayed) and never a release without
    an outstanding engage.  A [Node_fault] crash clears the node's
    balances — a crash wipes back-pressure flags without emitting
    releases. *)

val custody_ledger : t -> name:string -> (unit -> int * int) -> unit
(** [custody_ledger c ~name read] registers a probe asserting the two
    custody accountings agree: [read ()] returns [(router custody
    packet count, cache custody region chunk count)]. *)

(** {1 Chunk conservation}

    sent = delivered + in custody + dropped (+ wire and fault losses),
    per chunk id and in aggregate at quiescence. *)

module Conservation : sig
  type coll = t
  type t

  val create : ?lossy:bool -> coll -> t
  (** [lossy] relaxes the aggregate equality to an inequality (wire
      loss makes exact accounting impossible without per-link taps). *)

  val handler : t -> float -> Chunksim.Trace.event -> unit
  (** Attach to the trace: counts [Cache_hit] events as synthesised
      pushes (a cache hit conjures a fresh copy of the chunk) and data
      [Dropped] events as drops. *)

  val note_push : t -> flow:int -> idx:int -> unit
  (** A chunk entered the network (sender origination). *)

  val note_delivery : t -> time:float -> flow:int -> idx:int -> unit
  (** A chunk reached its consumer.  Immediately flags a chunk
      delivered more times than it was sent (duplicate delivery) or
      never sent at all. *)

  val note_fault_loss : t -> time:float -> flow:int -> idx:int -> unit
  (** A chunk copy was destroyed by a named fault (killed on a downed
      link, flushed from a queue, wiped from custody, or swallowed by
      a dead node).  Immediately flags a chunk with more copies
      delivered + destroyed than were ever sent. *)

  val pushes : t -> int
  val deliveries : t -> int

  val finish :
    t -> time:float -> quiescent:bool -> in_custody:int -> wire_losses:int ->
    unit
  (** End-of-run aggregate check.  [quiescent] means every flow
      completed (no data in flight); [in_custody] is the chunk count
      still held across all routers.  Without wire loss or faults it is
      exact: sent = delivered + in custody + dropped, the drops counted
      from the trace by {!handler}.  With either, it relaxes to:
      delivered + in custody + fault-destroyed must not exceed sent. *)
end
