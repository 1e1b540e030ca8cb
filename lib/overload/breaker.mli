(** Receiver-side retransmission circuit breaker.

    Pure state machine; the receiver drives it from its timeout handler
    and its data path.  Closed → normal retransmission, debited from a
    budget of {e consecutive} barren timeouts; exhausting the budget
    opens the breaker.  Open → no retransmissions at all until
    [probe_interval] elapses, then a single half-open probe; an
    answered probe (any new data) closes the breaker and refunds the
    budget, an unanswered one re-opens it.  Under a permanent
    partition the send rate is therefore bounded by
    [budget + elapsed / probe_interval] — no retransmission storm. *)

type state = Closed | Open | Half_open

type t

val create : budget:int -> probe_interval:float -> t
(** @raise Invalid_argument if [budget < 0] or [probe_interval <= 0.]. *)

val on_timeout : t -> clock:float array -> [ `Retry | `Probe | `Wait ]
(** The receiver's retransmission timer fired with no progress since it
    was armed; [clock.(0)] is the time now (the engine's
    {!Sim.Engine.clock_cells} fit), read in place so the call boxes no
    float.  [`Retry]: retransmit normally.  [`Probe]: send exactly one
    half-open probe.  [`Wait]: send nothing. *)

val on_progress : t -> unit
(** New data arrived: close the breaker, reset the budget. *)

val state : t -> state

