(** Time-weighted series recorder.

    Records a piecewise-constant signal (link utilisation, cache
    occupancy, allocated rate...) and integrates it over time, so
    "mean utilisation over the run" is exact rather than sampled.
    Values may be recorded out of order only at the same timestamp;
    time must otherwise be non-decreasing. *)

type t

val create : start:float -> t
(** Signal value is [0.] from [start] onwards. *)

val record : t -> time:float -> float -> unit
(** The signal takes the new value from [time] onwards.
    @raise Invalid_argument if [time] precedes the last record. *)

val time_average : t -> until:float -> float
(** Time-weighted mean of the signal over [[start, until]].
    @raise Invalid_argument if [until] precedes the last record time.
    [0.] over an empty interval. *)

val integral : t -> until:float -> float
(** ∫ signal dt over [[start, until]]. *)
