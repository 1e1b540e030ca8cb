(** One generated transfer request: the workload engine's output unit,
    convertible to an [Inrpp.Protocol.flow_spec] by the consumer (the
    dependency points that way — the protocol depends on the workload,
    never the reverse). *)

type t = {
  start : float;   (** arrival time, seconds *)
  src : int;       (** producer node id *)
  dst : int;       (** consumer node id *)
  content : int;   (** catalogue object id — the popularity-cache key *)
  chunks : int;    (** transfer length in chunks, [> 0] *)
}

val to_json : t -> Obs.Json.t
(** One NDJSON trace row:
    [{"t":...,"src":...,"dst":...,"content":...,"chunks":...}]. *)

val of_json : Obs.Json.t -> (t, string) result
(** Inverse of {!to_json}; rejects missing fields, non-integer ids,
    negative times and non-positive chunk counts. *)

