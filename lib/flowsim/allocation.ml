module Path = Topology.Path
module Link = Topology.Link
module Graph = Topology.Graph

(* ------------------------------------------------------------------ *)
(* Classic end-to-end max-min by progressive filling. *)

let path_link_ids (p : Path.t) =
  Array.of_list (List.map (fun (l : Link.t) -> l.Link.id) p.Path.links)

(* each demand's path as the ids of its links, resolved once per call *)
let link_ids demands = Array.map (fun (p, _) -> path_link_ids p) demands

let capacities g =
  Array.init (Graph.link_count g) (fun i -> (Graph.link g i).Link.capacity)

let max_min g demands =
  let nflows = Array.length demands in
  let nlinks = Graph.link_count g in
  let capacity = capacities g in
  let residual = Array.copy capacity in
  let paths = link_ids demands in
  let rates = Array.make nflows 0. in
  let frozen = Array.make nflows false in
  let unfrozen = ref nflows in
  let freeze f =
    frozen.(f) <- true;
    decr unfrozen
  in
  (* zero-hop flows: no link constraint *)
  Array.iteri
    (fun f (_, demand) ->
      if Array.length paths.(f) = 0 then begin
        rates.(f) <- (if Float.is_finite demand then demand else 0.);
        freeze f
      end)
    demands;
  let unfrozen_on = Array.make nlinks 0 in
  let guard = ref (nflows + nlinks + 2) in
  while !unfrozen > 0 && !guard > 0 do
    decr guard;
    Array.fill unfrozen_on 0 nlinks 0;
    for f = 0 to nflows - 1 do
      if not frozen.(f) then begin
        let p = paths.(f) in
        for j = 0 to Array.length p - 1 do
          unfrozen_on.(p.(j)) <- unfrozen_on.(p.(j)) + 1
        done
      end
    done;
    (* smallest feasible uniform increment across unfrozen flows *)
    let delta = ref infinity in
    for f = 0 to nflows - 1 do
      if not frozen.(f) then begin
        let headroom = snd demands.(f) -. rates.(f) in
        if headroom < !delta then delta := headroom;
        let p = paths.(f) in
        for j = 0 to Array.length p - 1 do
          let l = p.(j) in
          let share = residual.(l) /. float_of_int unfrozen_on.(l) in
          if share < !delta then delta := share
        done
      end
    done;
    let delta = Float.max 0. !delta in
    (* apply the increment and freeze exhausted flows *)
    for f = 0 to nflows - 1 do
      if not frozen.(f) then begin
        rates.(f) <- rates.(f) +. delta;
        let p = paths.(f) in
        for j = 0 to Array.length p - 1 do
          residual.(p.(j)) <- residual.(p.(j)) -. delta
        done;
        if rates.(f) >= snd demands.(f) -. 1e-9 then freeze f
      end
    done;
    (* freeze flows riding a saturated link *)
    for f = 0 to nflows - 1 do
      if not frozen.(f) then begin
        let p = paths.(f) in
        let j = ref 0 in
        while
          !j < Array.length p
          && not (residual.(p.(!j)) <= 1e-9 *. capacity.(p.(!j)))
        do
          incr j
        done;
        if !j < Array.length p then freeze f
      end
    done
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

(* A detour around one link as the walk uses it: the ids of its links
   and its hop count. *)
type detour = {
  d_links : int array;
  d_hops : float;
}

(* State shared by the passes of one {!inrp} call: each demand's path
   as link ids, each node's aggregate outgoing capacity, and each
   link's usable detours, resolved the first time the link overflows. *)
type walk = {
  paths : int array array;
  capacity : float array;
  out_cap : float array;
  detours_of : int -> detour array;
}

let walk ~options ~detours g demands =
  let nlinks = Graph.link_count g in
  let max_int_hops =
    if options.allow_further then max options.max_detour 2
    else options.max_detour
  in
  let resolved = Array.make nlinks false in
  let table = Array.make nlinks [||] in
  let detours_of l =
    if options.max_detour > 0 && not resolved.(l) then begin
      resolved.(l) <- true;
      table.(l) <-
        Array.of_list
          (List.filter_map
             (fun (_, (dp : Path.t)) ->
               (* a detour with k intermediates has k + 1 hops *)
               if Path.hops dp <= max_int_hops + 1 then
                 Some
                   {
                     d_links = path_link_ids dp;
                     d_hops = float_of_int (Path.hops dp);
                   }
               else None)
             (detours (Graph.link g l)))
    end;
    table.(l)
  in
  {
    paths = link_ids demands;
    capacity = capacities g;
    out_cap =
      Array.init (Graph.node_count g) (fun u ->
          List.fold_left
            (fun acc (l : Link.t) -> acc +. l.Link.capacity)
            0. (Graph.out_links g u));
    detours_of;
  }

(* One open-loop pass: push at the first-link processor-sharing share
   (capped by [caps]), spill overflow onto detours, drop what no link
   will take.  The back-pressure fixed point in [inrp] tightens [caps]
   between passes. *)
let inrp_pass ~options w g demands caps =
  let nflows = Array.length demands in
  let paths = w.paths in
  (* sender push rates.  Router-style sources ([source_detour]) inject
     up to their node's aggregate outgoing capacity and let the walk
     below share links and spill to detours; end-host-style sources
     multiplex into their primary first link by processor sharing,
     computed as max-min over one-link paths. *)
  let pushed =
    if options.source_detour then
      Array.mapi
        (fun i (p, _) -> Float.min caps.(i) w.out_cap.(Path.src p))
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
  let residual = Array.copy w.capacity in
  let delivered = Array.make nflows 0. in
  let weighted = Array.make nflows 0. in
  let total_clean = ref 0. and total_det = ref 0. in
  let quantum = Array.map (fun r -> r /. float_of_int rounds) pushed in
  for round = 0 to rounds - 1 do
    for slot = 0 to nflows - 1 do
      (* rotate service order so no flow systematically goes first *)
      let f = (slot + round) mod nflows in
      let links = paths.(f) in
      let q = quantum.(f) in
      if q > 0. && Array.length links > 0 then begin
        (* the parcel of fluid walking the path: [clean] bits/s that
           never left the primary route, [det] bits/s that crossed at
           least one detour, and the hop-weighted sum [wh] used for
           path-stretch accounting *)
        let clean = ref q and det = ref 0. and wh = ref 0. in
        for h = 0 to Array.length links - 1 do
          let l = links.(h) in
          let amount = !clean +. !det in
          if amount > 1e-15 then begin
            let granted = Float.min amount residual.(l) in
            residual.(l) <- residual.(l) -. granted;
            let frac = granted /. amount in
            let kept_clean = !clean *. frac in
            let kept_det = !det *. frac in
            let kept_wh = (!wh *. frac) +. granted in
            let overflow = amount -. granted in
            (* route the overflow through detours around [l] *)
            let via_det = ref 0. and via_wh = ref 0. in
            if overflow > 1e-15 then begin
              let ds = w.detours_of l in
              let left = ref overflow in
              for k = 0 to Array.length ds - 1 do
                if !left > 1e-15 then begin
                  let dt = ds.(k) in
                  let dl = dt.d_links in
                  (* grant the same amount on every link of the detour *)
                  let grantable = ref !left in
                  for j = 0 to Array.length dl - 1 do
                    grantable := Float.min !grantable residual.(dl.(j))
                  done;
                  let d = !grantable in
                  if d > 0. then begin
                    for j = 0 to Array.length dl - 1 do
                      let got = Float.min d residual.(dl.(j)) in
                      residual.(dl.(j)) <- residual.(dl.(j)) -. got;
                      (* the min above guarantees full grants *)
                      assert (got >= d -. 1e-9)
                    done;
                    let dfrac = d /. overflow in
                    let wh_inherit = !wh *. (overflow /. amount) *. dfrac in
                    via_det := !via_det +. d;
                    via_wh := !via_wh +. wh_inherit +. (d *. dt.d_hops);
                    left := !left -. d
                  end
                end
              done
            end;
            clean := kept_clean;
            det := kept_det +. !via_det;
            wh := kept_wh +. !via_wh
          end
        done;
        delivered.(f) <- delivered.(f) +. (!clean +. !det);
        weighted.(f) <- weighted.(f) +. !wh;
        total_clean := !total_clean +. !clean;
        total_det := !total_det +. !det
      end
    done
  done;
  let effective_hops =
    Array.init nflows (fun f ->
        if delivered.(f) > 0. then weighted.(f) /. delivered.(f)
        else float_of_int (Array.length paths.(f)))
  in
  let total = !total_clean +. !total_det in
  let link_carried =
    Array.mapi (fun i cap -> cap -. residual.(i)) w.capacity
  in
  {
    delivered;
    pushed;
    effective_hops;
    detoured_fraction = (if total > 0. then !total_det /. total else 0.);
    link_carried;
  }

let inrp ?(options = default_inrp) ~detours g demands =
  let w = walk ~options ~detours g demands in
  let caps = Array.map snd demands in
  let result = ref (inrp_pass ~options w g demands caps) in
  (* Back-pressure: tighten each sender to what it proved deliverable,
     with head-room on the exploratory passes so freed capacity can be
     re-claimed; the final pass runs without head-room so the returned
     allocation wastes (almost) nothing. *)
  let max_capacity = Array.fold_left Float.max 0. w.capacity in
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
    result := inrp_pass ~options w g demands caps
  done;
  !result
