(** Differential equivalence harness.

    A differential replays seed-derived random inputs through two
    implementations that must be observationally identical and reports
    the first divergence; the tests build them and sweep them over
    ≥ 50 seeds with {!sweep}. *)

type verdict = { equal : bool; detail : string }

val sweep : ?domains:int -> seeds:int list -> (seed:int -> verdict) -> verdict
(** Run a differential over many seeds; equal iff every seed is.
    [domains] (default 1) spreads the per-seed runs across domains via
    {!Parallel.Pool}; verdicts are folded in seed-list order, so the
    summary is byte-identical at any setting. *)
