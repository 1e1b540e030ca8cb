type state = Closed | Open | Half_open

type t = {
  budget : int;
  probe_interval : float;
  mutable state : state;
  mutable barren : int;
  mutable last_probe : float;
}

let create ~budget ~probe_interval =
  if budget < 0 then invalid_arg "Breaker.create: budget < 0";
  if probe_interval <= 0. then invalid_arg "Breaker.create: probe_interval <= 0";
  {
    budget;
    probe_interval;
    state = Closed;
    barren = 0;
    last_probe = neg_infinity;
  }

let state t = t.state

let on_progress t =
  t.state <- Closed;
  t.barren <- 0

(* A barren timeout fired.  [`Retry] — retransmit as before (budget not
   exhausted).  [`Probe] — the breaker is half-open: send exactly one
   probe retransmission.  [`Wait] — the breaker is open and the probe
   interval has not elapsed; send nothing.  The time is read from
   [clock] only where a branch needs it. *)
let on_timeout t ~clock =
  match t.state with
  | Closed ->
    if t.barren < t.budget then begin
      t.barren <- t.barren + 1;
      `Retry
    end
    else begin
      t.state <- Open;
      t.last_probe <- clock.(0);
      `Wait
    end
  | Half_open ->
    (* the previous probe went unanswered: back to open *)
    t.state <- Open;
    `Wait
  | Open ->
    let now = clock.(0) in
    if now -. t.last_probe >= t.probe_interval -. 1e-9 then begin
      t.state <- Half_open;
      t.last_probe <- now;
      `Probe
    end
    else `Wait
