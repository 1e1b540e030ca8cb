(** Window-driven pull receiver of the AIMD-family baselines, and the
    chunk choice it shares with {!Rcp}.

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

val expire :
  fetch -> (int, float) Hashtbl.t -> now:float -> deadline:float -> bool
(** [expire f outstanding ~now ~deadline] removes every request sent
    more than [deadline] before [now] from [outstanding] (chunk ->
    send time) and requeues it unless already queued, counting a
    retransmission; [true] if any expired. *)

val retransmissions : fetch -> int

val receivers : coupled:bool -> Harness.env -> Harness.receiver array
(** One pull receiver per flow in [env.flows], one window per subflow.
    Its metrics: [puller_retransmissions_total],
    [puller_loss_events_total] and [puller_chunks_received]. *)
