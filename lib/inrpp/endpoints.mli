(** A run's endpoints (private): a {!Sender} at each flow's producer, a
    {!Receiver} at its consumer, and per-node dispatch on top of
    routing (several flows may start or end at one node). *)

val attach : Wiring.t -> faulted:bool -> Sender.t array * Receiver.t array
(** The senders and the receivers, both in flow-id order.  A completed
    flow records its FCT, releases its entries under teardown and
    counts towards {!Wiring.all_done}; with [faulted], each delivery
    closes the pending disruptions' recovery time. *)
