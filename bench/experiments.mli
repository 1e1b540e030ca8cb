(** Paper-artefact experiment implementations.

    Each entry regenerates one table/figure of the paper (or a
    repository ablation) on stdout.  `bench/main.exe` is the CLI, and
    `dune runtest` diffs the stdout of the ten paper artefacts against
    the checked-in text in test/golden/<id>.expected.  {!capture} runs
    the same closures in-process and returns the bytes they print. *)

val all : (string * (unit -> unit)) list
(** Experiment id -> runner, in canonical order. *)

val find : string -> (unit -> unit) option

val set_sidecar : out_channel -> unit
(** Route machine-readable NDJSON rows (one per measured row, tagged
    with the experiment id) to the channel until {!close_sidecar}. *)

val close_sidecar : unit -> unit
(** Close and detach the sidecar channel; no-op when none is set. *)

val sidecar_emit : experiment:string -> (string * Obs.Json.t) list -> unit
(** Emit one sidecar row (no-op without a sidecar channel). *)

val set_domains : int -> unit
(** Fan sweep-shaped experiments ({e resilience}, {e popularity} and
    {e overload}) across this many domains via {!Parallel.Pool}
    (default 1).  Results are joined in job-index order and all
    order-sensitive effects happen at join, so output is
    byte-identical at any setting.
    @raise Invalid_argument on [d < 1]. *)

val domains : unit -> int

val resilience_grid :
  ?stores:float list -> ?levels:int list -> ?isp:bool -> unit -> unit
(** The resilience experiment on a configurable grid — [stores]
    (chunks of custody, default [[100.; 400.]]), [levels] (outage
    counts, default [[0; 2; 4]]), [isp] (include the VSNL scenario
    next to the dumbbell, default [true]).  The [resilience] entry in
    {!all} runs the defaults; the parallel-determinism test captures a
    reduced grid at several domain counts. *)

val capture : (unit -> unit) -> string
(** Run with stdout redirected to a temp file; return the bytes
    written.  [Format.std_formatter] is flushed around the redirect so
    the result matches `bench/main.exe <id>` byte for byte. *)
