module Session = Inrpp.Session

type flow_state = {
  flow : Harness.flow;
  fetch : Puller.fetch;
  outstanding : (int, float) Hashtbl.t;  (* chunk -> send time *)
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
          outstanding = Hashtbl.create 32;
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
               if Hashtbl.length st.outstanding < max_outstanding then begin
                 match Puller.next_chunk st.fetch with
                 | Some nc ->
                   Hashtbl.replace st.outstanding nc (Sim.Engine.now eng);
                   Harness.request env st.flow ~subflow:0 ~nc
                     ~ack:(Session.next_needed st.flow.Harness.sess)
                 | None -> ()
               end;
               pace st
             end))
    end
  in
  (* loss recovery: conservative fixed check *)
  let rec check_timeouts st =
    if not (finished st) then begin
      ignore
        (Puller.expire st.fetch st.outstanding ~now:(Sim.Engine.now eng)
           ~deadline:0.5);
      ignore (Sim.Engine.schedule eng ~delay:0.1 (fun () -> check_timeouts st))
    end
  in
  Array.map
    (fun st ->
      {
        Harness.start =
          (fun () ->
            st.started <- true;
            update_rates ();
            pace st;
            check_timeouts st);
        on_data = (fun ~subflow:_ idx _ -> Hashtbl.remove st.outstanding idx);
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
