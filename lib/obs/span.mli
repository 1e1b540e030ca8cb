(** Causal chunk-lifecycle spans.

    A collector folds the trace's chunk-lifecycle events (see
    {!Chunksim.Trace.set_lifecycle}) into one per-chunk timeline keyed
    by the packed {!Chunksim.Chunk_key}, and derives from each
    timeline a {e critical-path breakdown}: the chunk's elapsed time
    partitioned into lifecycle stages —

    - {b queue}: admitted to an output queue, waiting to serialise
      ([Enqueued] → [Tx_begin]);
    - {b wire}: serialisation + propagation ([Tx_begin] → the next
      event downstream);
    - {b custody}: held in a custody store ([Cached] →
      [Custody_released]/[_evacuated]/[_evicted]);
    - {b other}: everything else (sender pacing gaps between
      retransmit copies, request-plane stalls).

    Events are sorted per chunk by timestamp before attribution: the
    lazy fast-path transmitter records [Tx_begin] with virtual start
    times that may precede earlier-recorded events.  Attribution is
    sequential — each inter-event interval is charged to the stage the
    {e earlier} event opened — so the four stages always sum exactly
    to the chunk's elapsed time.  When a retransmit puts concurrent
    copies of one chunk in flight, their interleaved events trade
    attribution between stages (the total stays exact); the
    [retransmits] count flags affected chunks.

    The collector also exports the whole run as Chrome trace-event /
    Perfetto-loadable JSON: one track per (flow = process, node =
    thread), an "X" complete slice per stage interval, and an
    "s"/"t"/"f" flow-arrow chain per chunk (id = the packed chunk key)
    carrying the causal parent links across nodes. *)

type t

type breakdown = {
  flow : int;
  idx : int;
  first_t : float;
  last_t : float;
  queue_s : float;
  wire_s : float;
  custody_s : float;
  other_s : float;
  hops : int;         (** [Tx_begin] count (retransmit copies included) *)
  detours : int;
  retransmits : int;
  delivered : bool;
}

val create : unit -> t

val add : t -> time:float -> Chunksim.Trace.event -> unit
(** Feed one event.  Chunk-lifecycle and per-chunk custody/detour
    events accumulate under their chunk key; [Phase_change],
    [Bp_signal], fault and [Flow_complete] events are kept as global
    annotations for the Perfetto export; [Sent]/[Received]/[Dropped]
    carry no chunk key and are ignored. *)

val sink : t -> Sink.t
(** Collect off a live trace (attach via an {!Observer} sink list or
    {!Sink.attach}). *)

val chunk_count : t -> int
val event_count : t -> int

val breakdowns : t -> breakdown list
(** One per chunk, sorted by (flow, idx).  NaN-timestamped events sort
    last and contribute zero-width intervals. *)

val report : Format.formatter -> t -> unit
(** Per-chunk critical-path table (worst elapsed first, 16 rows) plus
    a stage-total summary line. *)

val to_perfetto : Buffer.t -> t -> unit
(** Chrome trace-event JSON ([{"traceEvents":[...],...}]), timestamps
    in microseconds of simulated time.  Loadable by Perfetto /
    chrome://tracing. *)
