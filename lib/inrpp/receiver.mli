(** Data receiver (consumer endpoint), paper §3.2.

    Requests data at the application rate: one request per arriving
    chunk (flow balance), each carrying ⟨Nc = lowest missing, ACKc,
    Ac = Nc-side anticipation window⟩.  Before any data arrives,
    requests are paced at 100 per second.  A progress
    timeout re-requests the lowest missing chunk — the explicit-timer
    loss recovery the paper prescribes instead of treating
    out-of-order arrival as congestion. *)

type t

val create :
  cfg:Config.t -> eng:Sim.Engine.t -> flow:int -> total_chunks:int ->
  send_request:(Chunksim.Packet.t -> unit) ->
  on_complete:(fct:float -> unit) -> ?overload:Overload.Config.t -> unit -> t
(** [overload] (default {!Overload.Config.Off}) arms the
    retransmission circuit breaker ({!Overload.Breaker}) under [On],
    with {!Overload.Config.retry_budget} and
    {!Overload.Config.probe_interval}: after the budget of consecutive
    barren timeouts the receiver stops retransmitting and probes at the
    interval instead.  Under [Off] the breaker's budget is [max_int]:
    it never opens, and every barren timeout re-requests with
    backoff.
    @raise Invalid_argument if [total_chunks <= 0]. *)

val start : t -> unit
(** Send the first request and arm the timers.  Idempotent. *)

val handle_data : t -> Chunksim.Packet.t -> unit
(** Process a Data packet for this flow (others ignored). *)

val session : t -> Session.t

val requests_sent : t -> int
val duplicates : t -> int
