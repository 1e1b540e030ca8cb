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

type ledger = {
  sent : float Itbl.t;  (* chunk -> send time *)
  mutable oldest : float;  (* no send time in [sent] is earlier *)
}

let ledger () = { sent = Itbl.create 32; oldest = Float.infinity }
let in_flight l = Itbl.length l.sent

let send l idx ~now =
  Itbl.replace l.sent idx now;
  if now < l.oldest then l.oldest <- now

let answer l idx =
  match Itbl.find_opt l.sent idx with
  | Some _ as sent ->
    Itbl.remove l.sent idx;
    sent
  | None -> None

(* No send time in the ledger is below [oldest], so while [now] is
   within [deadline] of it no request can qualify and the walk is
   skipped. *)
let expire f l ~now ~deadline =
  if now -. l.oldest > deadline then begin
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
        l.sent []
    in
    List.iter
      (fun idx ->
        Itbl.remove l.sent idx;
        if not (Itbl.mem f.retry_set idx) then begin
          Itbl.replace f.retry_set idx ();
          Queue.add idx f.retry;
          f.retx <- f.retx + 1
        end)
      expired;
    l.oldest <- !oldest
  end

let retransmissions f = f.retx

type sub = { win : Window.t; out : ledger }

let receiver ~coupled (env : Harness.env) (flow : Harness.flow) =
  let eng = env.Harness.eng and sess = flow.Harness.sess in
  let fetch = fetch sess in
  let subs =
    Array.map
      (fun _ -> { win = Window.create (); out = ledger () })
      flow.Harness.wires
  in
  let fill () =
    if not (Session.is_complete sess) then begin
      let progress = ref true in
      while !progress do
        progress := false;
        Array.iteri
          (fun subflow s ->
            if in_flight s.out < Window.capacity s.win then begin
              match next_chunk fetch with
              | Some nc ->
                send s.out nc ~now:(Sim.Engine.now eng);
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
          let before = in_flight s.out in
          expire fetch s.out ~now ~deadline:(Window.rto s.win);
          if in_flight s.out < before then Window.on_loss s.win ~now)
        subs;
      fill ();
      Sim.Engine.arm (Lazy.force poll) ~delay:0.02
    end
  and poll = lazy (Sim.Engine.timer eng check_timeouts) in
  let on_data ~subflow idx verdict =
    let s = subs.(subflow) in
    (match answer s.out idx with
    | Some t0 ->
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
