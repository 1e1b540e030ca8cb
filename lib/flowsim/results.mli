(** Measurement output of a flow-level simulation run. *)

type t = {
  strategy : string;
  warmup : float;
  duration : float;              (** measurement window, seconds *)
  arrivals : int;                (** flows arriving inside the window *)
  rejected : int;                (** arrivals refused (unroutable or admission cap) *)
  completions : int;             (** flows completing inside the window *)
  offered_bits : float;          (** bits of all window arrivals *)
  delivered_bits : float;        (** bits drained inside the window *)
  throughput : float;            (** delivered / offered; the Fig. 4a metric *)
  mean_fct : float;              (** seconds; 0 when no completions *)
  p95_fct : float;
  mean_active : float;           (** time-averaged concurrent flows *)
  mean_stretch : float;          (** bits-weighted, completed flows *)
  stretch_samples : Sim.Stats.Samples.t; (** per-completed-flow stretch (Fig. 4b) *)
  detoured_fraction : float;     (** time-averaged share of delivered traffic
                                     riding at least one detour (INRP only) *)
}

val pp_table : Format.formatter -> t list -> unit
(** Aligned comparison table (one row per run). *)
