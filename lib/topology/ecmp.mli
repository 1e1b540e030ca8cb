(** Equal-Cost Multi-Path route sets (RFC 2992 style).

    ECMP is one of the two baselines in Fig. 4a.  For a source and
    destination we enumerate all shortest paths (up to a bound, the
    equal-cost DAG can be exponential) and hash flows onto them. *)

val equal_cost_paths :
  ?limit:int -> Graph.t -> Node.id -> Node.id -> Path.t list
(** All min-hop paths from source to destination, up to [limit]
    (default 16), in depth-first order over each node's [out_links]
    (lexicographic in link order).  Empty when unreachable. *)

val pick : Path.t list -> flow_id:int -> Path.t option
(** Deterministic hash-based selection among candidate paths, the
    per-flow splitting mode of RFC 2992 (no packet reordering). *)

val hash_flow : flow_id:int -> buckets:int -> int
(** The underlying hash: stable across runs, uniform-ish over buckets.
    @raise Invalid_argument if [buckets <= 0]. *)
