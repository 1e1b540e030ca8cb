module Path = Topology.Path
module Link = Topology.Link
module Graph = Topology.Graph

(* ------------------------------------------------------------------ *)
(* Classic end-to-end max-min by progressive filling. *)

let max_min g demands =
  let nflows = Array.length demands in
  let nlinks = Graph.link_count g in
  let residual = Array.init nlinks (fun i -> (Graph.link g i).Link.capacity) in
  let rates = Array.make nflows 0. in
  let frozen = Array.make nflows false in
  (* zero-hop flows: no link constraint *)
  Array.iteri
    (fun f (p, demand) ->
      if Path.hops p = 0 then begin
        rates.(f) <- (if Float.is_finite demand then demand else 0.);
        frozen.(f) <- true
      end)
    demands;
  let link_ids p = List.map (fun (l : Link.t) -> l.Link.id) p.Path.links in
  let unfrozen_on = Array.make nlinks 0 in
  let recount () =
    Array.fill unfrozen_on 0 nlinks 0;
    Array.iteri
      (fun f (p, _) ->
        if not frozen.(f) then
          List.iter
            (fun l -> unfrozen_on.(l) <- unfrozen_on.(l) + 1)
            (link_ids p))
      demands
  in
  let all_frozen () = Array.for_all Fun.id frozen in
  let guard = ref (nflows + nlinks + 2) in
  while (not (all_frozen ())) && !guard > 0 do
    decr guard;
    recount ();
    (* smallest feasible uniform increment across unfrozen flows *)
    let delta = ref infinity in
    Array.iteri
      (fun f (p, demand) ->
        if not frozen.(f) then begin
          let headroom = demand -. rates.(f) in
          if headroom < !delta then delta := headroom;
          List.iter
            (fun l ->
              let share = residual.(l) /. float_of_int unfrozen_on.(l) in
              if share < !delta then delta := share)
            (link_ids p)
        end)
      demands;
    let delta = Float.max 0. !delta in
    (* apply the increment and freeze exhausted flows *)
    Array.iteri
      (fun f (p, demand) ->
        if not frozen.(f) then begin
          rates.(f) <- rates.(f) +. delta;
          List.iter
            (fun l -> residual.(l) <- residual.(l) -. delta)
            (link_ids p);
          if rates.(f) >= demand -. 1e-9 then frozen.(f) <- true
        end)
      demands;
    (* freeze flows riding a saturated link *)
    Array.iteri
      (fun f (p, _) ->
        if not frozen.(f) then
          if
            List.exists
              (fun l -> residual.(l) <= 1e-9 *. (Graph.link g l).Link.capacity)
              (link_ids p)
          then frozen.(f) <- true)
      demands
  done;
  rates

(* ------------------------------------------------------------------ *)
(* INRP hop-by-hop allocation. *)

type inrp_options = {
  max_detour : int;
  allow_further : bool;
  source_detour : bool;
}

let default_inrp =
  { max_detour = 1; allow_further = true; source_detour = true }

let rounds = 50

(* back-pressure fixed-point passes: after each pass a sender's cap
   drops to what it could deliver, modelling the closed-loop mode of
   §3.2, so undeliverable traffic stops wasting upstream capacity *)
let bp_iterations = 4

let fig3_inrp = { default_inrp with source_detour = false }

type inrp_result = {
  delivered : float array;
  pushed : float array;
  effective_hops : float array;
  detoured_fraction : float;
  link_carried : float array;
}

(* A parcel of fluid walking a path: [clean] bits/s that never left the
   primary route, [det] bits/s that crossed at least one detour, and
   the hop-weighted sum used for path-stretch accounting. *)
type parcel = {
  clean : float;
  det : float;
  wh : float;
}

let parcel_amount p = p.clean +. p.det

(* One open-loop pass: push at the first-link processor-sharing share
   (capped by [caps]), spill overflow onto detours, drop what no link
   will take.  The back-pressure fixed point in [inrp] tightens [caps]
   between passes. *)
let inrp_pass ~options ~detours g demands caps =
  let nflows = Array.length demands in
  let nlinks = Graph.link_count g in
  (* sender push rates.  Router-style sources ([source_detour]) inject
     up to their node's aggregate outgoing capacity and let the walk
     below share links and spill to detours; end-host-style sources
     multiplex into their primary first link by processor sharing,
     computed as max-min over one-link paths. *)
  let pushed =
    if options.source_detour then
      Array.mapi
        (fun i (p, _) ->
          let out_cap =
            List.fold_left
              (fun acc (l : Link.t) -> acc +. l.Link.capacity)
              0.
              (Graph.out_links g (Path.src p))
          in
          Float.min caps.(i) out_cap)
        demands
    else begin
      let first_link_demands =
        Array.mapi
          (fun i (p, _) ->
            let demand = caps.(i) in
            match p.Path.links with
            | [] -> (p, 0.)
            | first :: _ -> begin
              match Path.of_links [ first ] with
              | Ok single -> (single, demand)
              | Error _ -> (p, 0.)
            end)
          demands
      in
      max_min g first_link_demands
    end
  in
  let residual = Array.init nlinks (fun i -> (Graph.link g i).Link.capacity) in
  let delivered = Array.make nflows 0. in
  let weighted = Array.make nflows 0. in
  let total_clean = ref 0. and total_det = ref 0. in
  let detour_cache = Hashtbl.create 64 in
  let detour_list (l : Link.t) =
    if options.max_detour = 0 then []
    else begin
      match Hashtbl.find_opt detour_cache l.Link.id with
      | Some ds -> ds
      | None ->
        let max_int_hops =
          if options.allow_further then max options.max_detour 2
          else options.max_detour
        in
        let ds =
          List.filter
            (fun (_, dp) ->
              Path.hops dp <= max_int_hops + 1
              (* a detour with k intermediates has k + 1 hops *))
            (detours l)
        in
        Hashtbl.add detour_cache l.Link.id ds;
        ds
    end
  in
  let take link_id amount =
    let granted = Float.min amount residual.(link_id) in
    residual.(link_id) <- residual.(link_id) -. granted;
    granted
  in
  (* grant [amount] across every link of [dpath] atomically *)
  let take_path (dpath : Path.t) amount =
    let grantable =
      List.fold_left
        (fun acc (l : Link.t) -> Float.min acc residual.(l.Link.id))
        amount dpath.Path.links
    in
    if grantable > 0. then
      List.iter
        (fun (l : Link.t) ->
          let got = take l.Link.id grantable in
          (* the min above guarantees full grants *)
          assert (got >= grantable -. 1e-9))
        dpath.Path.links;
    Float.max 0. grantable
  in
  let quantum = Array.map (fun r -> r /. float_of_int rounds) pushed in
  for round = 0 to rounds - 1 do
    for slot = 0 to nflows - 1 do
      (* rotate service order so no flow systematically goes first *)
      let f = (slot + round) mod nflows in
      let p, _ = demands.(f) in
      let q = quantum.(f) in
      if q > 0. && Path.hops p > 0 then begin
        let carry = ref { clean = q; det = 0.; wh = 0. } in
        List.iter
          (fun (l : Link.t) ->
            let amount = parcel_amount !carry in
            if amount > 1e-15 then begin
              let granted = take l.Link.id amount in
              let frac = granted /. amount in
              let kept =
                {
                  clean = !carry.clean *. frac;
                  det = !carry.det *. frac;
                  wh = (!carry.wh *. frac) +. granted;
                }
              in
              let overflow = amount -. granted in
              (* route the overflow through detours around [l] *)
              let via_detours = ref { clean = 0.; det = 0.; wh = 0. } in
              if overflow > 1e-15 then begin
                let left = ref overflow in
                List.iter
                  (fun (_, dpath) ->
                    if !left > 1e-15 then begin
                      let d = take_path dpath !left in
                      if d > 0. then begin
                        let dfrac = d /. overflow in
                        let wh_inherit =
                          !carry.wh *. (overflow /. amount) *. dfrac
                        in
                        via_detours :=
                          {
                            clean = !via_detours.clean;
                            det = !via_detours.det +. d;
                            wh =
                              !via_detours.wh +. wh_inherit
                              +. (d *. float_of_int (Path.hops dpath));
                          };
                        left := !left -. d
                      end
                    end)
                  (detour_list l)
              end;
              carry :=
                {
                  clean = kept.clean;
                  det = kept.det +. !via_detours.det;
                  wh = kept.wh +. !via_detours.wh;
                }
            end)
          p.Path.links;
        delivered.(f) <- delivered.(f) +. parcel_amount !carry;
        weighted.(f) <- weighted.(f) +. !carry.wh;
        total_clean := !total_clean +. !carry.clean;
        total_det := !total_det +. !carry.det
      end
    done
  done;
  let effective_hops =
    Array.init nflows (fun f ->
        if delivered.(f) > 0. then weighted.(f) /. delivered.(f)
        else float_of_int (Path.hops (fst demands.(f))))
  in
  let total = !total_clean +. !total_det in
  let link_carried =
    Array.init nlinks (fun i ->
        (Graph.link g i).Link.capacity -. residual.(i))
  in
  {
    delivered;
    pushed;
    effective_hops;
    detoured_fraction = (if total > 0. then !total_det /. total else 0.);
    link_carried;
  }

let inrp ?(options = default_inrp) ~detours g demands =
  let caps = Array.map snd demands in
  let result = ref (inrp_pass ~options ~detours g demands caps) in
  (* Back-pressure: tighten each sender to what it proved deliverable,
     with head-room on the exploratory passes so freed capacity can be
     re-claimed; the final pass runs without head-room so the returned
     allocation wastes (almost) nothing. *)
  let max_capacity =
    Graph.fold_links (fun l acc -> Float.max acc l.Link.capacity) g 0.
  in
  for pass = 2 to bp_iterations do
    let final = pass = bp_iterations in
    let slack = if final then 1.0 else 1.25 in
    (* a small probe keeps fully-blocked senders able to re-grow when
       other senders back off — the rate with which receivers keep
       requesting in closed-loop mode *)
    let probe = if final then 0. else 0.01 *. max_capacity in
    Array.iteri
      (fun i (_, original) ->
        caps.(i) <-
          Float.min original ((!result.delivered.(i) *. slack) +. probe))
      demands;
    result := inrp_pass ~options ~detours g demands caps
  done;
  !result

(* ------------------------------------------------------------------ *)

module Detour_table = struct
  type t = {
    g : Graph.t;
    max_intermediate : int;
    cache : (int, (Topology.Node.id * Path.t) list) Hashtbl.t;
  }

  let create ?(max_intermediate = 2) g =
    if max_intermediate < 1 then
      invalid_arg "Detour_table.create: max_intermediate < 1";
    { g; max_intermediate; cache = Hashtbl.create 64 }

  let find t (l : Link.t) =
    match Hashtbl.find_opt t.cache l.Link.id with
    | Some ds -> ds
    | None ->
      let ds =
        Topology.Detour.detours_via t.g l
          ~max_intermediate:t.max_intermediate
      in
      Hashtbl.add t.cache l.Link.id ds;
      ds
  end
