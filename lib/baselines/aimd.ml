let run ?chunk_bits ?queue_bits ?horizon ?obs ?faults g specs =
  Harness.run ~protocol:"AIMD" ~paths_per_flow:1 ?chunk_bits ?queue_bits
    ?horizon ?obs ?faults
    (Puller.receivers ~coupled:false)
    g specs
