(** Window-driven pull receiver of the AIMD-family baselines, and the
    chunk choice and request ledger it shares with {!Rcp} and
    {!Hbh}.

    Chunks are requested one per request packet (no anticipation — the
    classic interest-per-data ICN transport, cf. ICP).  Each subflow
    runs its own AIMD window over its own wire flow id and path;
    chunk indices are striped across subflows on demand.  With
    [coupled = true] the windows grow per MPTCP's linked-increase.
    A per-subflow RTO requeues expired chunks and halves the window —
    loss is the only congestion signal, exactly the e2e behaviour the
    paper argues against. *)

type fetch
(** Which chunk a flow requests next: requeued chunks first, then the
    next fresh index, skipping what the session already holds. *)

val fetch : Inrpp.Session.t -> fetch
val next_chunk : fetch -> int option

type ledger
(** The requests a window or a pacer has in flight, each with its send
    time, and a lower bound on those times. *)

val ledger : unit -> ledger
val in_flight : ledger -> int

val send : ledger -> int -> now:float -> unit
(** A request for the chunk went out at [now]. *)

val answer : ledger -> int -> float option
(** The chunk arrived: drop it from the ledger and return its send
    time, [None] when it was not in flight. *)

val expire : fetch -> ledger -> now:float -> deadline:float -> unit
(** [expire f l ~now ~deadline] drops every request sent more than
    [deadline] before [now] from [l] and requeues its chunk in [f]
    unless already queued, counting a retransmission.  While [now] is
    within [deadline] of the ledger's lower bound no request can
    qualify, and the table is not walked. *)

val retransmissions : fetch -> int

val receivers : coupled:bool -> Harness.env -> Harness.receiver array
(** One pull receiver per flow in [env.flows], one window per subflow.
    Its metrics: [puller_retransmissions_total],
    [puller_loss_events_total] and [puller_chunks_received]. *)
