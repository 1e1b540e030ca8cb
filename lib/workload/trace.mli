(** NDJSON workload traces: persist a generated request stream and
    replay it later (or replay a trace produced elsewhere).

    Reading streams through {!Obs.Json.Reader}, so memory is bounded by
    the longest line, never the file — replaying a multi-gigabyte trace
    costs the same space as a ten-line one. *)

val save : out_channel -> Request.t list -> unit
(** One {!Request.to_json} object per line. *)

val save_file : string -> Request.t list -> unit

val load_file : string -> (Request.t list, string) result

val validate : Topology.Graph.t -> Request.t list -> (unit, string) result
(** Checks every request's endpoints are distinct node ids of the
    graph — run before handing a foreign trace to a simulator. *)
