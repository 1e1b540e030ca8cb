type spec = {
  seed : int64;
  horizon : float;
  max_requests : int;
  objects : int;
  alpha : float;
  chunk_min : int;
  chunk_max : int;
  chunk_shape : float;
  rate : float;
  diurnal_amplitude : float;
  diurnal_period : float;
  bursts : Arrivals.burst list;
  producers : Topology.Node.role list;
  consumers : Topology.Node.role list;
  affinity : float;
}

let default =
  {
    seed = 1L;
    horizon = 10.;
    max_requests = 256;
    objects = 64;
    alpha = 0.8;
    chunk_min = 4;
    chunk_max = 64;
    chunk_shape = 1.2;
    rate = 8.;
    diurnal_amplitude = 0.;
    diurnal_period = 86_400.;
    bursts = [];
    producers = [];
    consumers = [];
    affinity = 0.;
  }

(* The generator state behind one traversal of the stream: built
   lazily at the first force, one request per subsequent force.  The
   draw order (catalogue object, then session pair, per arrival) is
   the contract — [requests] and [requests_seq] must stay
   byte-identical. *)
let requests_seq spec g =
  if spec.horizon <= 0. then invalid_arg "Gen.requests: horizon <= 0";
  if spec.max_requests < 0 then invalid_arg "Gen.requests: max_requests < 0";
  let make () =
    (* four independent sub-seeds derived from the one spec seed: the
       draws of one component never shift another's stream *)
    let root = Sim.Rng.create spec.seed in
    let sub () = Sim.Rng.next_int64 root in
    let catalog_seed = sub () in
    let arrival_seed = sub () in
    let session_seed = sub () in
    let object_seed = sub () in
    let catalog =
      Catalog.create ~alpha:spec.alpha ~chunk_shape:spec.chunk_shape
        ~chunk_min:spec.chunk_min ~chunk_max:spec.chunk_max
        ~objects:spec.objects ~seed:catalog_seed ()
    in
    let arrivals =
      Arrivals.create ~diurnal_amplitude:spec.diurnal_amplitude
        ~diurnal_period:spec.diurnal_period ~bursts:spec.bursts
        ~rate:spec.rate ~seed:arrival_seed ()
    in
    let session =
      Session.create ~producers:spec.producers ~consumers:spec.consumers
        ~affinity:spec.affinity ~seed:session_seed g
    in
    let object_rng = Sim.Rng.create object_seed in
    (catalog, arrivals, session, object_rng)
  in
  let rec step state n () =
    if n >= spec.max_requests then Seq.Nil
    else begin
      let ((catalog, arrivals, session, object_rng) as state) =
        match state with Some s -> s | None -> make ()
      in
      let at = Arrivals.next arrivals in
      if at >= spec.horizon then Seq.Nil
      else begin
        let content = Catalog.draw catalog object_rng in
        let src, dst = Session.draw session in
        let r =
          {
            Request.start = at;
            src;
            dst;
            content;
            chunks = Catalog.chunks catalog content;
          }
        in
        Seq.Cons (r, step (Some state) (n + 1))
      end
    end
  in
  (* memoized: the generator state is imperative (three RNG streams),
     so a bare thunk chain would misdraw if any prefix were forced
     twice — memoization makes the stream persistent like a list *)
  Seq.memoize (step None 0)

let requests spec g = List.of_seq (requests_seq spec g)

