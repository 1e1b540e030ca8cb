(** AIMD congestion window with RTT/RTO estimation (Jacobson).

    Window units are chunks.  Slow start doubles per RTT until
    [ssthresh], then congestion avoidance adds one chunk per window
    per RTT.  A loss halves the window — at most once per RTT, so a
    burst of losses counts as one congestion event.  The coupled
    variant implements MPTCP's linked-increase (LIA): a subflow's
    growth is damped by the aggregate window across subflows. *)

type t

val create : ?init:float -> ?ssthresh:float -> unit -> t
(** Defaults: initial window 2, ssthresh 64.
    @raise Invalid_argument if [init < 1.] or [ssthresh < 1.]. *)

val size : t -> float
(** Current window; always >= 1. *)

val capacity : t -> int
(** [floor (size t)] — chunks allowed outstanding. *)

val on_ack : t -> now:float -> rtt_sample:float -> unit
(** Standard AIMD increase plus RTT estimator update. *)

val on_ack_coupled : t -> now:float -> rtt_sample:float -> total_window:float -> unit
(** LIA increase: [min (1/total, 1/w)] per ack in congestion
    avoidance. *)

val on_loss : t -> now:float -> unit
(** Multiplicative decrease (at most once per current RTT estimate). *)

val rto : t -> float
(** Retransmission timeout: [srtt + 4 * rttvar], floored at 10 ms,
    initially 1 s. *)

val losses : t -> int
