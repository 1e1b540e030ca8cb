let run ?chunk_bits ?queue_bits ?horizon ?obs ?faults g specs =
  Harness.run ~protocol:"MPTCP" ~paths_per_flow:2 ?chunk_bits ?queue_bits
    ?horizon ?obs ?faults (Puller.receivers ~coupled:true) g specs
