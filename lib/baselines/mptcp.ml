let run ?(subflows = 2) ?chunk_bits ?queue_bits ?horizon ?obs ?faults g specs
    =
  if subflows < 1 then invalid_arg "Mptcp.run: subflows < 1";
  Harness.run ~protocol:"MPTCP" ~paths_per_flow:subflows ?chunk_bits
    ?queue_bits ?horizon ?obs ?faults
    (Puller.receivers ~coupled:true)
    g specs
