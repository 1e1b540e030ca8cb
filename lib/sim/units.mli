(** Physical units used across the simulators.

    Everything is carried as [float] in base SI units — seconds, bits,
    bits per second — with constructors for the paper's figures ("a
    10 GB cache after a 40 Gbps link"). *)

val gigabytes : float -> float
(** Decimal gigabytes to bits. *)

val gbps : float -> float
(** Gigabits per second to bits per second. *)

(** {1 Derived} *)

val transmission_time : bits:float -> rate:float -> float
(** [bits / rate]. @raise Invalid_argument if [rate <= 0.]. *)

val holding_time : cache_bits:float -> rate:float -> float
(** Time a cache of [cache_bits] can absorb a full-rate inflow — the
    §3.3 custody feasibility number. *)

(** {1 Pretty-printing} *)

val pp_rate : Format.formatter -> float -> unit
(** e.g. ["2.5 Gbps"]. *)

val pp_size : Format.formatter -> float -> unit
(** e.g. ["10.0 GB"] (decimal bytes). *)

val pp_time : Format.formatter -> float -> unit
(** e.g. ["1.25 ms"]. *)
