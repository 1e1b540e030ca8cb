module Session = Inrpp.Session

type flow_state = {
  flow : Harness.flow;
  fetch : Puller.fetch;
  out : Puller.ledger;
  mutable rate : float;  (* assigned fair rate, bps *)
  mutable started : bool;
  mutable pacing_armed : bool;
}

let max_outstanding = 512

(* the rate-feedback period *)
let update_interval = 0.05

let receivers g (env : Harness.env) =
  let eng = env.Harness.eng and chunk_bits = env.Harness.chunk_bits in
  let states =
    Array.map
      (fun (flow : Harness.flow) ->
        {
          flow;
          fetch = Puller.fetch flow.Harness.sess;
          out = Puller.ledger ();
          rate = chunk_bits *. 10.;  (* modest initial rate *)
          started = false;
          pacing_armed = false;
        })
      env.Harness.flows
  in
  let finished st = Session.is_complete st.flow.Harness.sess in
  (* explicit rate feedback: max-min share among active flows *)
  let update_rates () =
    let active =
      List.filter
        (fun st -> st.started && not (finished st))
        (Array.to_list states)
    in
    if active <> [] then begin
      let demand st = (st.flow.Harness.paths.(0), infinity) in
      let rates =
        Flowsim.Allocation.max_min g (Array.of_list (List.map demand active))
      in
      List.iteri (fun j st -> st.rate <- Float.max chunk_bits rates.(j)) active
    end
  in
  env.Harness.every update_interval update_rates;
  (* request pacing at the assigned rate *)
  let rec pace st =
    if (not (finished st)) && not st.pacing_armed then begin
      st.pacing_armed <- true;
      ignore
        (Sim.Engine.schedule eng ~delay:(chunk_bits /. st.rate) (fun () ->
             st.pacing_armed <- false;
             if not (finished st) then begin
               if Puller.in_flight st.out < max_outstanding then begin
                 match Puller.next_chunk st.fetch with
                 | Some nc ->
                   Puller.send st.out nc ~now:(Sim.Engine.now eng);
                   Harness.request env st.flow ~subflow:0 ~nc
                     ~ack:(Session.next_needed st.flow.Harness.sess)
                 | None -> ()
               end;
               pace st
             end))
    end
  in
  Array.map
    (fun st ->
      (* loss recovery: conservative fixed check *)
      let rec check_timeouts () =
        if not (finished st) then begin
          Puller.expire st.fetch st.out ~now:(Sim.Engine.now eng)
            ~deadline:0.5;
          Sim.Engine.arm (Lazy.force poll) ~delay:0.1
        end
      and poll = lazy (Sim.Engine.timer eng check_timeouts) in
      {
        Harness.start =
          (fun () ->
            st.started <- true;
            update_rates ();
            pace st;
            check_timeouts ());
        on_data = (fun ~subflow:_ idx _ -> ignore (Puller.answer st.out idx));
        retransmissions = (fun () -> Puller.retransmissions st.fetch);
        metrics =
          [ ( "rcp_retransmissions_total",
              fun () -> float_of_int (Puller.retransmissions st.fetch) ) ];
        series = [ ("rcp_rate_bps", fun () -> st.rate) ];
      })
    states

let run ?chunk_bits ?queue_bits ?horizon ?obs ?faults g specs =
  Harness.run ~protocol:"RCP" ~paths_per_flow:1 ?chunk_bits ?queue_bits
    ?horizon ?obs ?faults (receivers g) g specs
