(** Statistics collectors: running moments, percentiles, CDFs.

    Used by every experiment to summarise throughput, stretch and
    completion-time samples, and by the benches to print the paper's
    figure series. *)

(** {1 Running moments} *)

module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** [0.] when empty. *)

  val min : t -> float
  (** [infinity] when empty. *)

  val max : t -> float
  (** [neg_infinity] when empty. *)

  val sum : t -> float
end

(** {1 Sample sets (exact percentiles)} *)

module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val to_sorted_array : t -> float array
  val mean : t -> float

  val percentile : t -> float -> float
  (** [percentile s p] with [p] in [[0, 100]], linear interpolation.
      @raise Invalid_argument on empty set or p outside range. *)

  val cdf : ?points:int -> t -> (float * float) list
  (** [(value, P(X <= value))] pairs suitable for plotting; [points]
      (default 50) evenly spaced in rank. Empty list when no samples. *)

  val cdf_at : t -> float -> float
  (** Empirical [P(X <= x)]; [0.] on empty set. *)
end

(** {1 Fixed-bin histogram} *)

module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  (** @raise Invalid_argument if [hi <= lo] or [bins <= 0]. *)

  val add : t -> float -> unit
  (** Out-of-range samples clamp into the first/last bin. *)

  val counts : t -> int array
  val bin_edges : t -> float array
  (** [bins + 1] edges. *)
end
