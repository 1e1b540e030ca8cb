type phase = Chunksim.Trace.phase = Push_data | Detour | Backpressure

type t = {
  engage : float;
  release : float;
  mutable state : phase;
  mutable changes : int;
}

let create ~engage ~release =
  if not (0. <= release && release < engage) then
    invalid_arg "Phase.create: need 0 <= release < engage";
  { engage; release; state = Push_data; changes = 0 }

let current t = t.state

let set t next =
  if next <> t.state then begin
    t.state <- next;
    t.changes <- t.changes + 1
  end;
  next

let update t ~ratio ~detour_usable ~custody_pressure ~custody_drained =
  match t.state with
  | Push_data ->
    if ratio >= t.engage then
      if detour_usable then set t Detour else set t Backpressure
    else t.state
  | Detour ->
    if custody_pressure then set t Backpressure
    else if ratio <= t.release then set t Push_data
    else if not detour_usable then set t Backpressure
    else t.state
  | Backpressure ->
    if custody_drained && ratio <= t.release then set t Push_data
    else if custody_drained && detour_usable then set t Detour
    else t.state

let transitions t = t.changes
