(** Anticipated-rate estimation (paper §3.3, eq. 1).

    Each router interface tracks the requests it forwards upstream per
    measurement interval T_i; every forwarded request predicts one
    chunk of data arriving back and leaving through a known data
    interface within roughly one RTT.  Summing those predictions per
    outgoing data interface gives the {e anticipated rate} r_a(i),
    which the phase machine compares against the interface's actual
    rate r(i).

    r_a is smoothed with an EWMA across intervals so a single bursty
    interval does not flip phases (the link-swapping concern of §4). *)

type t

val create : ti:float -> alpha:float -> capacity:float -> t
(** @raise Invalid_argument if [ti <= 0.], [alpha] outside [0, 1] or
    [capacity <= 0.]. *)

val note_request : t -> expected_bits:float -> unit
(** A request predicting [expected_bits] of data through this
    interface was forwarded during the current interval. *)

val note_transit : t -> bits:float -> unit
(** Data already in flight through this interface that was {e not}
    predicted by a counted request (detoured traffic arriving from
    off-path).  Counted into the same interval. *)

val tick : t -> unit
(** Close the current interval: fold its demand into the EWMA and
    reset the counters.  Call every [ti] seconds. *)

val replay_idle : t -> int -> unit
(** [replay_idle t k] closes [k] intervals in which nothing was noted:
    bit for bit the same r_a as [k] calls to {!tick}.  The work stops
    once an interval leaves r_a unchanged (at 0 or at the denormal
    floor), so it is bounded however large [k] is.
    @raise Invalid_argument if [k < 0], or if [k > 0] and bits were
    noted in the current interval. *)

val anticipated_rate : t -> float
(** Smoothed r_a, bps. *)

val ratio : t -> float
(** r_a / capacity — the phase-machine input. *)
