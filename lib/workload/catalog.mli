(** Content catalogue: Zipf(α) popularity over [objects] items, each
    with a chunk count drawn once (at creation) from a bounded Pareto —
    the standard request mix of the ICN caching literature.

    A catalogue is immutable after {!create} and a pure function of its
    parameters and [seed], so two catalogues built with equal arguments
    are indistinguishable — the property the domain-parallel sweeps
    rely on (each job builds its own copy).

    Object ids are [0 .. objects - 1] in popularity order: object 0 is
    the hottest (Zipf rank 1). *)

type t

val create :
  ?alpha:float -> ?chunk_shape:float -> ?chunk_min:int -> ?chunk_max:int ->
  objects:int -> seed:int64 -> unit -> t
(** [alpha] (default 0.8) is the Zipf exponent; [chunk_min] /
    [chunk_max] (defaults 4 / 256) bound the per-object chunk count and
    [chunk_shape] (default 1.2) is the Pareto tail exponent between
    them.
    @raise Invalid_argument if [objects <= 0], [alpha < 0.],
    [chunk_shape <= 0.] or not [1 <= chunk_min <= chunk_max]. *)

val chunks : t -> int -> int
(** Chunk count of an object, in [[chunk_min, chunk_max]].
    @raise Invalid_argument on an id outside [[0, objects)]. *)

val draw : t -> Sim.Rng.t -> int
(** Draw an object id with Zipf popularity using the caller's
    generator (the catalogue itself holds no draw state). *)
