(** The RCP baseline's receivers ({!Comparison.Rcp_proto}).

    Each receiver paces requests at its flow's assigned rate instead
    of probing with a window.  The rate is the max-min fair share of
    the flow's fixed path among currently active flows, an
    idealisation of RCP's router feedback: the share is read from a
    fluid computation rather than carried hop by hop in a rate field
    (see DESIGN.md).  Chunks are picked with {!Puller.next_chunk}. *)

val receivers : Harness.env -> Harness.receiver array
(** One paced receiver per flow in [env.flows], on its first path,
    with the rates recomputed every 50 ms. *)
