(** Deterministic fault schedules.

    A schedule is an immutable, time-sorted list of fault events plus
    an [int64] seed for the runtime randomness faults need after
    injection (control-plane burst dice).  The same schedule value can
    be replayed against several runs — the INRPP/baseline comparison
    passes one schedule to every protocol so failures are
    apples-to-apples — and {!random} derives a schedule purely from
    [seed], so sweeps are replayable from a single integer. *)

type link_policy = [ `Drop_queued | `Hold_queued ]
(** What a downed interface does with its queue (see
    {!Chunksim.Iface.set_down}). *)

type node_policy =
  | Wipe_custody      (** crash loses custody store and packet table *)
  | Preserve_custody  (** non-volatile custody: state survives restart *)

type event =
  | Link_down of { link : int; policy : link_policy }
      (** directed link id; the interface stops transmitting *)
  | Link_up of { link : int }
  | Node_crash of { node : Topology.Node.id; policy : node_policy }
      (** handler detached: arriving packets die at the node *)
  | Node_restart of { node : Topology.Node.id }
  | Control_loss_burst of { duration : float; loss : float }
      (** for [duration] seconds every Request/Backpressure packet is
          independently lost with probability [loss]; Data unaffected *)

type timed = { at : float; event : event }

type t

val empty : t

val of_list : ?seed:int64 -> timed list -> t
(** Sorts by [at] (stable).  [seed] (default [1L]) feeds the burst
    dice.  @raise Invalid_argument on a negative time. *)

val is_empty : t -> bool
val events : t -> timed list
(** Time-sorted, earliest first. *)

val seed : t -> int64

val random :
  seed:int64 -> ?link_outages:int -> ?crashes:int -> ?bursts:int ->
  horizon:float -> Topology.Graph.t -> t
(** Derive a schedule from [seed] alone.  [link_outages] (default 2)
    finite outages, each taking both directions of a random physical
    link down at a time uniform in the first two-thirds of [horizon]
    and back up after an exponential-ish duration around
    [horizon /. 10.]; [crashes] (default 0)
    crash/restart pairs on random nodes of out-degree ≥ 2 (ignored on
    graphs with none); [bursts] (default 0) control-plane loss bursts
    with loss in [0.5, 1.0].  All outages resolve strictly before
    [horizon]. *)

