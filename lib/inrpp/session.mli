(** Receiver-side transfer bookkeeping.

    Tracks which chunks of a flow have arrived (detours reorder, so
    arbitrary arrival order must be handled), the lowest missing index
    (the next Nc to request), and completion. *)

type t

val create : total_chunks:int -> t
(** @raise Invalid_argument if [total_chunks <= 0]. *)

val total : t -> int

val receive : t -> int -> [ `New | `Duplicate ]
(** Record arrival of chunk [idx].
    @raise Invalid_argument if [idx] is outside [0, total). *)

val next_needed : t -> int
(** Lowest index not yet received; [total] when complete. *)

val received_count : t -> int
val is_complete : t -> bool
val highest_received : t -> int
(** [-1] before any arrival. *)

