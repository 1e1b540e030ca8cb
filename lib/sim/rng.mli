(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic element of the repository draws through this
    module from an explicit seed, so all experiments replay bit-for-bit
    — a requirement for regenerating the paper's tables.  SplitMix64 is
    small, fast, passes BigCrush, and supports cheap stream splitting
    for independent sub-generators. *)

type t

val create : int64 -> t
(** Independent generator from a seed.  Equal seeds give equal
    streams. *)

val split : t -> t
(** A new generator statistically independent of the parent; the
    parent advances by one step. *)

(** {1 Raw draws} *)

val next_int64 : t -> int64

val bits53 : t -> int
(** The next step's 53 high bits, in [[0, 2^53)]: what {!float},
    {!exponential} and {!pareto} scale by [2^-53] into a unit float.
    An immediate int, so a caller that scales the bits itself draws
    the same values as those functions without their boxed result. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [[0, bound)].
    @raise Invalid_argument if [bound <= 0.]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

(** {1 Distributions} *)

val exponential : t -> mean:float -> float
(** Inter-arrival times of a Poisson process.
    @raise Invalid_argument if [mean <= 0.]. *)

val pareto : t -> shape:float -> scale:float -> float
(** Heavy-tailed flow sizes.  Mean is [shape * scale / (shape - 1)]
    when [shape > 1].  @raise Invalid_argument if [shape <= 0.] or
    [scale <= 0.]. *)

val zipf_sampler : n:int -> s:float -> t -> int
(** Precomputed-table sampler; partially apply to [(n, s)] and reuse. *)
