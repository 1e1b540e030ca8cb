(** Flight recorder: a bounded ring of the most recent trace events,
    dumped to NDJSON only when something goes wrong (an invariant
    violation, an unrecovered fault).  In a clean run nothing is ever
    written — the dump file is opened lazily on the first dump, so
    clean runs leave no artefact.

    Each dump appends one header line
    [{"type":"flight_dump","reason":...,"t":...,"events":N}] followed
    by the ring's [N] event lines (oldest first, same row shape as
    {!Sink.ndjson}); successive dumps append to the same file.  Dumps
    beyond [max_dumps] are dropped (the ring keeps recording) so a
    pathological run can't fill the disk. *)

type t

val create : ?capacity:int -> ?max_dumps:int -> path:string -> unit -> t
(** Ring of the last [capacity] events (default 4096), at most
    [max_dumps] dumps written (default 8).
    @raise Invalid_argument if [capacity] or [max_dumps] is not
    positive. *)

val record : t -> time:float -> Chunksim.Trace.event -> unit
val sink : t -> Sink.t
(** Record off a live trace.  Closing the sink closes the recorder. *)

val seen : t -> int
(** Events recorded over the recorder's lifetime. *)

val dump : t -> reason:string -> time:float -> unit
(** Append a header + the ring's contents to [path].  No-op once
    [max_dumps] dumps have been written. *)

val dumps : t -> int
(** Dumps actually written so far. *)

val close : t -> unit
(** Flush and close the dump file if one was opened.  Idempotent. *)
