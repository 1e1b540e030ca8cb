module Session = Inrpp.Session

(* int keys compared inline, not through polymorphic compare; the same
   buckets, resizes and fold order as a stdlib [Hashtbl] *)
module Itbl = Hashtbl.Make (Int)

type fetch = {
  sess : Session.t;
  retry : int Queue.t;
  retry_set : unit Itbl.t;
  mutable next_seq : int;
  mutable retx : int;
}

let fetch sess =
  {
    sess;
    retry = Queue.create ();
    retry_set = Itbl.create 8;
    next_seq = 0;
    retx = 0;
  }

let rec next_chunk f =
  match Queue.take_opt f.retry with
  | Some idx ->
    Itbl.remove f.retry_set idx;
    if Session.next_needed f.sess > idx then next_chunk f else Some idx
  | None ->
    let rec fresh () =
      if f.next_seq >= Session.total f.sess then None
      else begin
        let idx = f.next_seq in
        f.next_seq <- idx + 1;
        if Session.next_needed f.sess > idx then fresh () else Some idx
      end
    in
    fresh ()

(* No send time in [outstanding] is below [oldest], so while [now]
   is within [deadline] of it no request can qualify and the walk is
   skipped. *)
let expire f outstanding ~oldest ~now ~deadline =
  if now -. oldest <= deadline then oldest
  else begin
    (* the survivors' earliest send time, found in the same walk *)
    let oldest = ref Float.infinity in
    let expired =
      Itbl.fold
        (fun idx t0 acc ->
          if now -. t0 > deadline then idx :: acc
          else begin
            if t0 < !oldest then oldest := t0;
            acc
          end)
        outstanding []
    in
    List.iter
      (fun idx ->
        Itbl.remove outstanding idx;
        if not (Itbl.mem f.retry_set idx) then begin
          Itbl.replace f.retry_set idx ();
          Queue.add idx f.retry;
          f.retx <- f.retx + 1
        end)
      expired;
    !oldest
  end

let retransmissions f = f.retx

type sub = {
  win : Window.t;
  outstanding : float Itbl.t;  (* chunk -> send time *)
  mutable oldest : float;  (* no send time in [outstanding] is earlier *)
}

let receiver ~coupled (env : Harness.env) (flow : Harness.flow) =
  let eng = env.Harness.eng and sess = flow.Harness.sess in
  let fetch = fetch sess in
  let subs =
    Array.map
      (fun _ ->
        {
          win = Window.create ();
          outstanding = Itbl.create 32;
          oldest = Float.infinity;
        })
      flow.Harness.wires
  in
  let fill () =
    if not (Session.is_complete sess) then begin
      let progress = ref true in
      while !progress do
        progress := false;
        Array.iteri
          (fun subflow s ->
            if Itbl.length s.outstanding < Window.capacity s.win then begin
              match next_chunk fetch with
              | Some nc ->
                let now = Sim.Engine.now eng in
                Itbl.replace s.outstanding nc now;
                if now < s.oldest then s.oldest <- now;
                Harness.request env flow ~subflow ~nc
                  ~ack:(Session.next_needed sess);
                progress := true
              | None -> ()
            end)
          subs
      done
    end
  in
  let rec check_timeouts () =
    if not (Session.is_complete sess) then begin
      let now = Sim.Engine.now eng in
      Array.iter
        (fun s ->
          let before = Itbl.length s.outstanding in
          s.oldest <-
            expire fetch s.outstanding ~oldest:s.oldest ~now
              ~deadline:(Window.rto s.win);
          if Itbl.length s.outstanding < before then Window.on_loss s.win ~now)
        subs;
      fill ();
      Sim.Engine.arm (Lazy.force poll) ~delay:0.02
    end
  and poll = lazy (Sim.Engine.timer eng check_timeouts) in
  let on_data ~subflow idx verdict =
    let s = subs.(subflow) in
    (match Itbl.find_opt s.outstanding idx with
    | Some t0 ->
      Itbl.remove s.outstanding idx;
      let now = Sim.Engine.now eng in
      let rtt_sample = now -. t0 in
      if coupled then
        Window.on_ack_coupled s.win ~now ~rtt_sample
          ~total_window:
            (Array.fold_left (fun acc s -> acc +. Window.size s.win) 0. subs)
      else Window.on_ack s.win ~now ~rtt_sample
    | None -> ());
    if verdict = `New then fill ()
  in
  {
    Harness.start =
      (fun () ->
        fill ();
        check_timeouts ());
    on_data;
    retransmissions = (fun () -> fetch.retx);
    metrics =
      [ ("puller_retransmissions_total", fun () -> float_of_int fetch.retx);
        ( "puller_loss_events_total",
          fun () ->
            float_of_int
              (Array.fold_left (fun acc s -> acc + Window.losses s.win) 0 subs)
        );
        ( "puller_chunks_received",
          fun () -> float_of_int (Session.received_count sess) ) ];
    series = [];
  }

let receivers ~coupled env =
  Array.map (receiver ~coupled env) env.Harness.flows
