(** Export and rendering of the engine self-profiler's per-event-kind
    rows (see {!Sim.Engine.profile_rows}).

    A row is [(kind, events, wall_s, minor_words)]: the number of
    engine events attributed to [kind], the wall-clock seconds and the
    minor-heap words their handlers cost in total.  Attribution is by
    {!Sim.Engine.profile_mark} — handlers that never mark land in the
    ["other"] row. *)

type row = string * int * float * float

val to_json : row list -> Json.t
(** [{"type":"profile","schema":"inrpp-profile/v1","rows":[...]}],
    rows sorted by wall-clock descending. *)

val of_json : Json.t -> (row list, string) result
(** Inverse of {!to_json} (row order preserved). *)

val report : Format.formatter -> row list -> unit
(** Table sorted by wall-clock share descending, with per-event
    averages (µs and minor words per event). *)
