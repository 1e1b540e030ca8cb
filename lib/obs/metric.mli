(** Typed metrics registry: labelled counters, callback gauges and
    histograms.

    A registry is a set of named instruments, each identified by a
    [(name, labels)] pair.  Instruments are created once (setup time)
    and return a concrete handle; the hot-path updates ({!incr},
    {!observe}) work on the handle directly, with no lookup and no
    closure ({!incr} is an int-field write and allocates nothing).

    Gauges are {!callback}s, read lazily at snapshot time — the
    cheapest way to expose values a subsystem already maintains (e.g.
    {!Inrpp.Router.counters}) without touching its hot path.

    Histograms reuse {!Sim.Stats.Histogram} for bucketing and
    {!Sim.Stats.Running} for exact moments. *)

type t
(** A registry. *)

type labels = (string * string) list
(** Label pairs, e.g. [["node", "3"; "link", "7"]].  Order is part of
    the identity: register with a fixed order per metric family. *)

type counter
type histogram

val create : unit -> t

(** {1 Registration (setup path)}

    All raise [Invalid_argument] on a duplicate [(name, labels)]. *)

val counter : t -> ?labels:labels -> string -> counter

val histogram :
  t -> ?labels:labels -> lo:float -> hi:float -> bins:int -> string ->
  histogram
(** Fixed linear buckets over [[lo, hi)] plus exact count/sum/min/max
    (out-of-range observations clamp into the edge buckets, as in
    {!Sim.Stats.Histogram}). *)

val callback : t -> ?labels:labels -> string -> (unit -> float) -> unit
(** Gauge whose value is read at snapshot time. *)

(** {1 Hot path — O(1), allocation-free} *)

val incr : counter -> unit
val observe : histogram -> float -> unit

(** {1 Snapshot} *)

type hist_summary = {
  count : int;
  sum : float;
  mean : float;
  min_v : float;  (** [infinity] when empty *)
  max_v : float;  (** [neg_infinity] when empty *)
  buckets : (float * float * int) list;  (** [(lo, hi, count)] *)
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_summary

type sample = {
  name : string;
  labels : labels;
  value : value;
}

val snapshot : t -> sample list
(** One sample per registered instrument, in registration order.
    Callback gauges are invoked here. *)
