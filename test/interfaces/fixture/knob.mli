(** The walker's fixture for the "knobs" rule: two functions with
    optional parameters and a config record, whose verdicts
    test_interfaces.ml pins.  [User] is the only program that sets
    any of them. *)

val fetch : ?passed:int -> ?never:int -> int -> int
(** [User] passes [passed], a use; nothing passes [never], so the rule
    flags it. *)

val scale : ?factor:int -> int -> int
(** [User] only passes [scale] itself to [List.map]: a use of
    [factor]. *)

type config = { updated : int; never_set : int }
(** [User] sets [updated] in a [with] update, a use; nothing sets
    [never_set], so the rule flags it. *)

val default : config
(** The constant that makes [config] a config record. *)
