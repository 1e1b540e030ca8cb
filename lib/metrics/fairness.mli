(** Fairness indices.

    Jain's index (Chiu & Jain, the paper's §3.1 metric):
    F = (Σ T)² / (n Σ T²) — 1 for equal shares, 1/n when one flow
    takes everything. *)

val jain : float array -> float
(** [1.] on an empty array or when every throughput is zero (the
    degenerate all-equal case).
    @raise Invalid_argument on negative throughputs. *)

