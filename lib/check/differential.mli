(** Differential equivalence harness.

    Replays seed-derived random inputs through two implementations
    that must be observationally identical and reports the first
    divergence; the test suite sweeps them over ≥ 50 seeds.  {!sweep}
    also serves protocol-level differentials built in the tests. *)

type verdict = { equal : bool; detail : string }

val queue_tie_order : seed:int -> verdict
(** Random event sets with forced collisions on every tie level pushed
    eagerly (default stamps) and lazily (shuffled insertion with
    explicit [~stamp]); the five-level tie order
    [(time, epoch, parent, stamp, seq)] must produce the same pop
    sequence — the contract the interface's lazy transmitter relies
    on. *)

val sweep : ?domains:int -> seeds:int list -> (seed:int -> verdict) -> verdict
(** Run a differential over many seeds; equal iff every seed is.
    [domains] (default 1) spreads the per-seed runs across domains via
    {!Parallel.Pool}; verdicts are folded in seed-list order, so the
    summary is byte-identical at any setting. *)
