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
  }

(* The imperative generator behind a stream.  Its draw order
   (catalogue object, then session pair, per arrival) is the contract:
   [requests] and [requests_seq] must stay byte-identical. *)
type gen = {
  catalog : Catalog.t;
  arrivals : Arrivals.t;
  session : Session.t;
  object_rng : Sim.Rng.t;
}

let draw st ~start =
  let content = Catalog.draw st.catalog st.object_rng in
  let src, dst = Session.draw st.session in
  {
    Request.start;
    src;
    dst;
    content;
    chunks = Catalog.chunks st.catalog content;
  }

(* Persistent by replay, not by memo.  The stream shares one generator
   and the index [pos] of the request it draws next.  Node [n] draws
   directly when [pos = n], the only case a single-pass consumer meets;
   any other force (a prefix forced twice, an earlier node after a later
   one) rebuilds the generator and replays [n] draws.  No node is
   written after it is made, so no old cell points at a new one and the
   minor GC promotes nothing a consumer drops.  A memoized chain
   wrote each cell after the one before it was promoted, so it promoted
   the whole stream: 100k EBONE requests through [Seq.iter] promoted
   1.5M words in 33 major collections, against 493 words and none. *)
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
        ~seed:session_seed g
    in
    { catalog; arrivals; session; object_rng = Sim.Rng.create object_seed }
  in
  (* built at the first force; [pos] is -1 while no draw is under way
     from a known position *)
  let gen = ref None and pos = ref (-1) in
  let rec node n () =
    if n >= spec.max_requests then Seq.Nil
    else begin
      let st =
        match !gen with
        | Some st when !pos = n -> st
        | Some _ | None ->
          let st = make () in
          gen := Some st;
          (* nodes [0, n) each drew a request below the horizon *)
          for _ = 1 to n do
            ignore (draw st ~start:(Arrivals.next st.arrivals))
          done;
          st
      in
      pos := -1;
      let at = Arrivals.next st.arrivals in
      if at >= spec.horizon then Seq.Nil
      else begin
        let r = draw st ~start:at in
        pos := n + 1;
        Seq.Cons (r, node (n + 1))
      end
    end
  in
  node 0

let requests spec g = List.of_seq (requests_seq spec g)
