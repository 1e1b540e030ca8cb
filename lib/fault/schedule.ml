type link_policy = [ `Drop_queued | `Hold_queued ]

type node_policy =
  | Wipe_custody
  | Preserve_custody

type event =
  | Link_down of { link : int; policy : link_policy }
  | Link_up of { link : int }
  | Node_crash of { node : Topology.Node.id; policy : node_policy }
  | Node_restart of { node : Topology.Node.id }
  | Control_loss_burst of { duration : float; loss : float }

type timed = { at : float; event : event }

type t = {
  evs : timed list; (* sorted by [at], stable *)
  seed : int64;
}

let empty = { evs = []; seed = 1L }

let of_list ?(seed = 1L) evs =
  List.iter
    (fun { at; _ } ->
      if at < 0. then invalid_arg "Schedule.of_list: negative event time")
    evs;
  { evs = List.stable_sort (fun a b -> compare a.at b.at) evs; seed }

let is_empty t = t.evs = []
let events t = t.evs
let seed t = t.seed
let length t = List.length t.evs

(* Stable two-way merge: both inputs are already time-sorted, and at
   equal times [a]'s events land first — composing a base schedule
   with an overlay is deterministic regardless of how either was
   built.  The merged seed is [a]'s unless [a] is the empty schedule
   (so merging onto [empty] is the identity both ways). *)
let merge a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
      if x.at <= y.at then x :: go xs' ys else y :: go xs ys'
  in
  { evs = go a.evs b.evs; seed = (if is_empty a then b.seed else a.seed) }

let random ~seed ?(link_outages = 2) ?(crashes = 0) ?(bursts = 0) ~horizon
    g =
  if horizon <= 0. then invalid_arg "Schedule.random: horizon <= 0";
  let mean_outage = horizon /. 10. in
  let rng = Sim.Rng.create seed in
  let evs = ref [] in
  let add at event = evs := { at; event } :: !evs in
  (* a start uniform over the first two-thirds plus a bounded duration
     keeps every outage resolving before the horizon *)
  let window at dur =
    let at = Float.max 0. at in
    let fin = Float.min (at +. dur) (horizon *. 0.95) in
    (at, Float.max (at +. 1e-6) fin)
  in
  let phys = Array.of_list (Topology.Graph.undirected_links g) in
  if Array.length phys > 0 then
    for _ = 1 to link_outages do
      let l = phys.(Sim.Rng.int rng (Array.length phys)) in
      let at = Sim.Rng.float rng (horizon *. 0.66) in
      let dur = mean_outage *. (0.5 +. Sim.Rng.float rng 1.5) in
      let at, fin = window at dur in
      let policy =
        if Sim.Rng.int rng 2 = 0 then `Drop_queued else `Hold_queued
      in
      let both f =
        f l.Topology.Link.id;
        match Topology.Graph.reverse g l with
        | Some r -> f r.Topology.Link.id
        | None -> ()
      in
      both (fun id -> add at (Link_down { link = id; policy }));
      both (fun id -> add fin (Link_up { link = id }))
    done;
  let candidates =
    List.filter
      (fun (n : Topology.Node.t) ->
        Topology.Graph.out_degree g n.Topology.Node.id >= 2)
      (Topology.Graph.nodes g)
  in
  let candidates = Array.of_list candidates in
  if Array.length candidates > 0 then
    for _ = 1 to crashes do
      let n = candidates.(Sim.Rng.int rng (Array.length candidates)) in
      let node = n.Topology.Node.id in
      let at = Sim.Rng.float rng (horizon *. 0.66) in
      let dur = mean_outage *. (0.5 +. Sim.Rng.float rng 1.5) in
      let at, fin = window at dur in
      let policy =
        if Sim.Rng.int rng 2 = 0 then Wipe_custody else Preserve_custody
      in
      add at (Node_crash { node; policy });
      add fin (Node_restart { node })
    done;
  for _ = 1 to bursts do
    let at = Sim.Rng.float rng (horizon *. 0.66) in
    let dur = mean_outage *. (0.2 +. Sim.Rng.float rng 0.6) in
    let at, fin = window at dur in
    let loss = 0.5 +. Sim.Rng.float rng 0.5 in
    add at (Control_loss_burst { duration = fin -. at; loss })
  done;
  of_list ~seed (List.rev !evs)

let pp_event ppf = function
  | Link_down { link; policy } ->
    Format.fprintf ppf "l%d down (%s)" link
      (match policy with `Drop_queued -> "drop" | `Hold_queued -> "hold")
  | Link_up { link } -> Format.fprintf ppf "l%d up" link
  | Node_crash { node; policy } ->
    Format.fprintf ppf "n%d crash (%s)" node
      (match policy with Wipe_custody -> "wipe" | Preserve_custody -> "preserve")
  | Node_restart { node } -> Format.fprintf ppf "n%d restart" node
  | Control_loss_burst { duration; loss } ->
    Format.fprintf ppf "control burst %.3gs loss %.2g" duration loss

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun { at; event } -> Format.fprintf ppf "%8.4fs  %a@," at pp_event event)
    t.evs;
  Format.fprintf ppf "@]"
