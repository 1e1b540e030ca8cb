(** Common result shape for transport runs, so the comparison harness
    can tabulate INRPP against the baselines uniformly. *)

type t = {
  protocol : string;
  flows : int;
  completed : int;
  fcts : float option array;     (** per flow, [None] if unfinished *)
  drops : int;
  retransmissions : int;         (** loss-recovery data packets *)
  goodput : float;               (** delivered application bits / sim_time *)
  sim_time : float;
  mean_fct : float;              (** over completed flows; 0 when none *)
  jain : float;                  (** fairness over per-flow mean rates *)
}

val make :
  protocol:string -> fcts:float option array -> chunk_bits:float ->
  chunks:int array -> drops:int -> retransmissions:int -> sim_time:float -> t
(** Derives the summary fields.  [chunks.(i)] is flow [i]'s transfer
    length; per-flow mean rate (for Jain) is
    [chunks * chunk_bits / fct]. *)

val to_json : t -> Obs.Json.t
(** One object per run — the machine-readable sidecar record the
    comparison harness emits next to its ASCII table.  [fcts] become a
    list with [null] for unfinished flows. *)

val pp_table : Format.formatter -> t list -> unit
