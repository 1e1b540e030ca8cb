type t = {
  total_chunks : int;
  got : Bytes.t;              (* one byte per chunk; dense and simple *)
  mutable count : int;
  mutable lowest_missing : int;
  mutable highest : int;
}

let create ~total_chunks =
  if total_chunks <= 0 then invalid_arg "Session.create: total_chunks <= 0";
  {
    total_chunks;
    got = Bytes.make total_chunks '\000';
    count = 0;
    lowest_missing = 0;
    highest = -1;
  }

let total t = t.total_chunks

let receive t idx =
  if idx < 0 || idx >= t.total_chunks then
    invalid_arg
      (Printf.sprintf "Session.receive: chunk %d outside [0,%d)" idx
         t.total_chunks);
  if Bytes.get t.got idx <> '\000' then `Duplicate
  else begin
    Bytes.set t.got idx '\001';
    t.count <- t.count + 1;
    if idx > t.highest then t.highest <- idx;
    if idx = t.lowest_missing then begin
      let i = ref (t.lowest_missing + 1) in
      while !i < t.total_chunks && Bytes.get t.got !i <> '\000' do
        incr i
      done;
      t.lowest_missing <- !i
    end;
    `New
  end

let next_needed t = t.lowest_missing
let received_count t = t.count
let is_complete t = t.count = t.total_chunks
let highest_received t = t.highest

