(** Deterministic [Domain]-based pool for embarrassingly parallel
    sweeps (OCaml 5).

    Jobs are independent closures; workers claim them dynamically off
    one shared queue (an atomic cursor — the degenerate work-stealing
    deque where every domain steals from the same global tail), so a
    slow job never idles the other domains.  Determinism comes from
    the join, not the schedule: results are delivered in {e job-index
    order}, whatever the completion order or domain count, so a caller
    that folds the result array produces byte-identical output at
    [~domains:1] and [~domains:64].

    The contract that makes this safe is {e domain locality}: a job
    must own every piece of mutable state it touches (its engine, RNG,
    observer, trace rings, checkers) and may share only immutable
    values with other jobs (topology graphs, configs, fault
    schedules).  See DESIGN §11 — "no cross-domain sharing except the
    job queue". *)

val run_jobs : ?domains:int -> (unit -> 'a) array -> 'a array
(** [run_jobs ~domains jobs] executes every job and returns their
    results in job-index order.  [domains] (default [1]) is the total
    worker count including the calling domain; it is clamped to the
    job count, and [~domains:1] runs every job inline in the calling
    domain — the exact sequential schedule.

    If jobs raise, every job still runs to completion and the
    exception of the {e lowest-indexed} failing job is re-raised at
    the join (with its backtrace) — which exception surfaces does not
    depend on the domain count.

    @raise Invalid_argument if [domains < 1]. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f xs] = [run_jobs ~domains [| fun () -> f xs.(0); ... |]]. *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}; result order follows input order. *)
