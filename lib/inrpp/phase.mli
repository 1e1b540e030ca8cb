(** Per-interface phase machine (paper §3.3).

    {v
    Push ── ratio ≥ engage, detour usable ──▶ Detour
    Push ── ratio ≥ engage, no detour ──────▶ Backpressure
    Detour ── custody pressure ─────────────▶ Backpressure
    Detour ── ratio ≤ release ──────────────▶ Push
    Backpressure ── custody drained and ratio ≤ release ──▶ Push
    v}

    Dual thresholds give hysteresis so estimator noise does not flap
    the interface between phases (link-swap stability, §4). *)

type phase = Chunksim.Trace.phase = Push_data | Detour | Backpressure

type t

val create : engage:float -> release:float -> t
(** @raise Invalid_argument unless [0 <= release < engage]. *)

val current : t -> phase

val update :
  t -> ratio:float -> detour_usable:bool -> custody_pressure:bool ->
  custody_drained:bool -> phase
(** Feed the latest estimator ratio and local state; returns the (new)
    phase.  [custody_pressure]: the custody region crossed its high
    watermark.  [custody_drained]: it fell below the low one. *)

val transitions : t -> int
(** Number of phase changes so far (a stability metric). *)
