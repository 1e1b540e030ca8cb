(** Append-only numeric timeseries: [(time, value)] points in two flat
    float arrays (amortised doubling, no boxing on append).  Produced
    by the {!Sampler}; exported by {!Export}. *)

type t

val create : ?labels:Metric.labels -> string -> t
val name : t -> string
val labels : t -> Metric.labels

val add : t -> time:float -> float -> unit
(** @raise Invalid_argument if [time] precedes the last point. *)

val iter : (time:float -> float -> unit) -> t -> unit

