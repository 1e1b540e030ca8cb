(** The walker's own fixture: four exports whose verdicts
    test_interfaces.ml pins.  [User] is the only program that calls
    into it. *)

val planted : int -> int
(** Nothing calls it: the export rule flags it. *)

val helper : int -> int
(** Called only by [entry], inside this module: reported as
    hideable. *)

val entry : int -> int
(** Called only through a local alias of this module: a use. *)

(** Used only as a functor argument: a use of [compare]. *)
module Key : sig
  type t = int

  val compare : t -> t -> int
end
