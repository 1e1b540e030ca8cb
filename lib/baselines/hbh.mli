(** The HBH baseline's receivers and shapers
    ({!Comparison.Hbh_proto}).

    Every node queues each flow's requests and forwards them paced at
    the flow's processor-sharing share of the data link their answers
    will take.  The shapers are the one handler installed over
    {!Harness.run}'s plain forwarders.  Receivers keep a fixed window
    of interests in flight (chunks chosen by {!Puller.next_chunk}) and
    re-request a chunk whose interest has gone unanswered for 5 s. *)

val receivers : Harness.env -> Harness.receiver array
(** Install the shapers on every node of [env] and return one receiver
    per flow in [env.flows], on its first path. *)
