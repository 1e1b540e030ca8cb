module T = Chunksim.Trace

type t = {
  capacity : int;
  max_dumps : int;
  path : string;
  times : float array;
  events : T.event array;
  mutable head : int; (* next write slot *)
  mutable count : int; (* events held, <= capacity *)
  mutable total : int; (* events ever recorded *)
  mutable n_dumps : int;
  mutable oc : out_channel option; (* opened on first dump *)
  mutable closed : bool;
}

let filler = T.Retransmit { flow = 0; idx = 0 }

let create ?(capacity = 4096) ?(max_dumps = 8) ~path () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity <= 0";
  if max_dumps <= 0 then invalid_arg "Recorder.create: max_dumps <= 0";
  {
    capacity;
    max_dumps;
    path;
    times = Array.make capacity 0.;
    events = Array.make capacity filler;
    head = 0;
    count = 0;
    total = 0;
    n_dumps = 0;
    oc = None;
    closed = false;
  }

let record t ~time e =
  t.times.(t.head) <- time;
  t.events.(t.head) <- e;
  t.head <- (t.head + 1) mod t.capacity;
  if t.count < t.capacity then t.count <- t.count + 1;
  t.total <- t.total + 1

let seen t = t.total
let dumps t = t.n_dumps

let iter_oldest_first t f =
  let start = (t.head - t.count + t.capacity * 2) mod t.capacity in
  for i = 0 to t.count - 1 do
    let j = (start + i) mod t.capacity in
    f t.times.(j) t.events.(j)
  done

let channel t =
  match t.oc with
  | Some oc -> oc
  | None ->
    let oc = open_out t.path in
    t.oc <- Some oc;
    oc

let dump t ~reason ~time =
  if (not t.closed) && t.n_dumps < t.max_dumps then begin
    t.n_dumps <- t.n_dumps + 1;
    let oc = channel t in
    let buf = Buffer.create 256 in
    Json.to_buffer buf
      (Json.Obj
         [
           ("type", Json.Str "flight_dump");
           ("reason", Json.Str reason);
           ("t", Json.Num time);
           ("events", Json.Num (float_of_int t.count));
         ]);
    Buffer.add_char buf '\n';
    iter_oldest_first t (fun etime e ->
        Json.to_buffer buf (Trace_codec.to_json ~time:etime e);
        Buffer.add_char buf '\n');
    Buffer.output_buffer oc buf;
    flush oc
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.oc with
    | Some oc ->
      t.oc <- None;
      close_out oc
    | None -> ()
  end

let sink t =
  Sink.callback ~close:(fun () -> close t) (fun time e -> record t ~time e)
