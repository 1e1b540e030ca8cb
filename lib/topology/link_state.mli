(** Mutable up/down view over a topology's directed links.

    The graph itself stays immutable; fault injection flips entries
    here, and everything that must react to an outage — the chunk
    router's detour filter, custody evacuation, the observability
    layer's per-link up/down timeseries — reads this view.  One
    instance is shared per run: the fault driver writes it,
    protocol and telemetry read it. *)

type t

val create : Graph.t -> t
(** All links start up. *)

val is_up : t -> int -> bool
(** By link id.  @raise Invalid_argument on an out-of-range id. *)

val set : t -> int -> up:bool -> unit
(** Bumps {!gen}.  @raise Invalid_argument on an out-of-range id. *)

val gen : t -> int
(** The number of {!set} calls so far: a reader that cached something
    derived from the view at generation [g] holds it only while [gen]
    still reads [g]. *)

