(* The router's per-interface control plane (paper §3.2–3.3): one port
   per out-link, each with its anticipated-rate estimator, its phase
   machine and its cached detour candidates, plus the tick walk that
   steps them.  The per-flow forwarding and custody state stays in
   [Router], which reads the port records directly on its hot path. *)

module Link = Topology.Link
module Path = Topology.Path
module Net = Chunksim.Net
module Iface = Chunksim.Iface
module Trace = Chunksim.Trace

(* A queue admits detoured chunks, and a port in detour keeps its own
   chunks on the primary, while the queue is below this fraction of
   its capacity *)
let detour_queue_threshold = 0.5

(* A detour candidate with everything the per-packet usability scan
   needs resolved ahead of time: hop interfaces, their admission
   limits, and the first hop's port.  The static condition — every hop
   up — is folded into cache membership (the depth bound is the
   detour table's); only queue room is re-checked per scan, so the
   scan allocates nothing. *)
type dcand = {
  dc_first : Link.t;
  dc_via : Topology.Node.id;       (* first hop's dst: the flowlet pin *)
  dc_rest : Topology.Node.id list; (* source route after the first hop *)
  dc_ifaces : Iface.t array;       (* every hop, candidate order *)
  dc_limits : float array;         (* threshold * capacity per hop *)
  dc_port : port;                  (* first hop's control state *)
}

(* Control state of one outgoing interface, one per out-link, built at
   [create] with its interface and that queue's detour-admission limit
   (queue capacity is fixed).  The estimator appears on first use and
   the phase on the estimator's first tick (or the first packet
   forwarded), the instants the sampler's [estimator_links]/
   [iface_phase] probes observe; [reset] clears both in place.  A port
   is on the walk ([walking]) from the first bit it notes until a tick
   leaves it idle in push-data; off the walk its estimator is current
   as of tick [synced] and owes one idle interval for every tick since
   (see [catch_up]).  The detour
   candidates are cached by the link-state view's generation, which
   every write to it bumps (a link flip, and a crash or restart, which
   also marks its neighbours' links): a [dk_gen] behind it means the
   static filter must be recomputed, and while they agree no hop's
   up-ness has changed.  [blocked]
   marks a port a drain found with no exit (primary down or full, no
   usable detour) for the rest of that drain: mid-drain, queues only
   fill and neither link state nor neighbour pressure moves. *)
and port = {
  p_link : Link.t;
  p_iface : Iface.t;               (* the link's interface *)
  p_limit : float;                 (* threshold * its queue capacity *)
  mutable est : Rate_estimator.t option;
  mutable phase : Phase.t option;
  mutable walking : bool;
  mutable synced : int;            (* registry tick count, off the walk *)
  mutable dk_gen : int;
  mutable dk_cands : dcand array;
  mutable blocked : int;           (* router drain count when found exitless *)
}

(* A run's periodic-work registry: the count of ticks closed so far and,
   each in ascending node id, the routers with a port on the walk and
   the routers holding custody or a local back-pressure engage.  A
   router created without one keeps its own tick count, advanced by
   its own ticks, and lists itself nowhere. *)
type registry = {
  mutable ticks : int;
  tick_nodes : int array;
  mutable tick_n : int;
  drain_nodes : int array;
  mutable drain_n : int;
}

(* One router's ports and what they read: built once per router *)
type set = {
  cfg : Config.t;
  net : Net.t;
  node : Topology.Node.id;
  detours : Detour_table.t;
  link_state : Topology.Link_state.t;
  trace : Trace.t option;
  overload : Overload.Config.t;
  mutable neighbor_pressure : (Topology.Node.id -> float) option;
  ports : port array;             (* one per out-link, ascending link id *)
  reg : registry option;
  mutable own_ticks : int;        (* the tick count without [reg] *)
  mutable tick_listed : bool;     (* in [reg]'s tick_nodes *)
}

let registry ~nodes =
  if nodes < 1 then invalid_arg "Router.registry: nodes < 1";
  {
    ticks = 0;
    tick_nodes = Array.make nodes 0;
    tick_n = 0;
    drain_nodes = Array.make nodes 0;
    drain_n = 0;
  }

let create ~cfg ~net ~node ~detours ~link_state ~trace ~overload ~reg =
  let ports =
    Topology.Graph.out_links (Net.graph net) node
    |> List.sort (fun (a : Link.t) (b : Link.t) ->
           Int.compare a.Link.id b.Link.id)
    |> List.map (fun (l : Link.t) ->
           let i = Net.iface net l.Link.id in
           { p_link = l; p_iface = i;
             p_limit = detour_queue_threshold *. Iface.queue_capacity i;
             est = None; phase = None; walking = false; synced = 0;
             dk_gen = -1; dk_cands = [||]; blocked = -1 })
    |> Array.of_list
  in
  { cfg; net; node; detours; link_state; trace; overload; ports; reg;
    neighbor_pressure = None; own_ticks = 0; tick_listed = false }

let now s = Sim.Engine.now (Net.engine s.net)

(* link id -> port: a binary search over the id-sorted ports, so the
   map costs no memory beyond the ports themselves *)
let rec search ports id lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let k = ports.(mid).p_link.Link.id in
    if k = id then mid
    else if k < id then search ports id (mid + 1) hi
    else search ports id lo mid

let index s id = search s.ports id 0 (Array.length s.ports)

let port_of s (l : Link.t) =
  let i = index s l.Link.id in
  if i < 0 then invalid_arg "Router: link does not leave this node";
  s.ports.(i)

let port_opt s link_id =
  let i = index s link_id in
  if i < 0 then None else Some s.ports.(i)

(* [node] into the ascending [nodes.(0 .. n - 1)]; the new length *)
let insert_sorted nodes n node =
  let i = ref n in
  while !i > 0 && nodes.(!i - 1) > node do
    nodes.(!i) <- nodes.(!i - 1);
    decr i
  done;
  nodes.(!i) <- node;
  n + 1

let ticks s = match s.reg with Some r -> r.ticks | None -> s.own_ticks

(* Off the walk, replay the idle intervals the skipped ticks owed *)
let catch_up s p e =
  if not p.walking then begin
    Rate_estimator.replay_idle e (ticks s - p.synced);
    p.synced <- ticks s
  end

let join_walk s p =
  p.walking <- true;
  match s.reg with
  | Some r when not s.tick_listed ->
    s.tick_listed <- true;
    r.tick_n <- insert_sorted r.tick_nodes r.tick_n s.node
  | Some _ | None -> ()

(* The estimator of a port about to note bits: current, and on the
   walk so the next tick runs its full step *)
let estimator s p =
  match p.est with
  | Some e when p.walking -> e
  | Some e ->
    catch_up s p e;
    join_walk s p;
    e
  | None ->
    let e =
      Rate_estimator.create ~ti:Config.ti ~alpha:Config.estimator_alpha
        ~capacity:p.p_link.Link.capacity
    in
    p.est <- Some e;
    join_walk s p;
    e

(* A port's estimator for reading, current as of the last tick *)
let current_estimator s p =
  (match p.est with Some e -> catch_up s p e | None -> ());
  p.est

let phase p =
  match p.phase with
  | Some ph -> ph
  | None ->
    let ph =
      Phase.create ~engage:Config.engage_ratio ~release:Config.release_ratio
    in
    p.phase <- Some ph;
    ph

let link_is_up s (l : Link.t) =
  Topology.Link_state.is_up s.link_state l.Link.id

(* ------------------------------------------------------------------ *)
(* Detour candidate cache *)

(* detour candidates around [l] within the table's depth and with
   every hop up; queue room is the per-scan dynamic check.  Remote
   queue state stands in for the paper's periodic utilisation exchange
   between one-hop neighbours. *)
let build_cands s (l : Link.t) =
  let usable =
    List.filter
      (fun (_, (d : Path.t)) ->
        List.for_all (fun hop -> link_is_up s hop) d.Path.links)
      (Topology.Detour.Table.find s.detours l)
  in
  Array.of_list
    (List.map
       (fun (via, (d : Path.t)) ->
         let first = List.hd d.Path.links in
         let ifaces =
           Array.of_list
             (List.map
                (fun (hop : Link.t) -> Net.iface s.net hop.Link.id)
                d.Path.links)
         in
         let limits =
           Array.map
             (fun i -> detour_queue_threshold *. Iface.queue_capacity i)
             ifaces
         in
         {
           dc_first = first;
           dc_via = via;
           (* the nodes after the first hop, ending at the protected
              link's dst *)
           dc_rest =
             (match d.Path.nodes with _ :: _ :: rest -> rest | _ -> []);
           dc_ifaces = ifaces;
           dc_limits = limits;
           dc_port = port_of s first;
         })
       usable)

let cands s p =
  let gen = Topology.Link_state.gen s.link_state in
  if p.dk_gen <> gen then begin
    p.dk_cands <- build_cands s p.p_link;
    p.dk_gen <- gen
  end;
  p.dk_cands

(* Detour refusal into pressured neighbours: a candidate whose first
   hop lands on a neighbour already at {!Overload.Config.neighbor_pressure}
   custody occupancy is unusable — deflecting load into a store that
   is itself shedding only spreads the collapse.  The pressure
   function is installed by the protocol layer (it owns the router
   array), and only under overload control. *)
let pressure_ok s (c : dcand) =
  match s.neighbor_pressure with
  | Some pressure_of -> pressure_of c.dc_via < Overload.Config.neighbor_pressure
  | None -> true

let rec room_from (c : dcand) i =
  i >= Array.length c.dc_ifaces
  || Iface.queue_occupancy c.dc_ifaces.(i) < c.dc_limits.(i)
     && room_from c (i + 1)

(* The scans are top-level recursions, not local closures, so a scan
   allocates nothing.  [usable_from] returns the first candidate with
   queue room on every hop and an unpressured first neighbour; -1 when
   there is none, -2 when there is none but neighbour pressure alone
   turned one away. *)
let rec usable_from s cs i refused =
  if i >= Array.length cs then if refused then -2 else -1
  else if not (room_from cs.(i) 0) then usable_from s cs (i + 1) refused
  else if pressure_ok s cs.(i) then i
  else usable_from s cs (i + 1) true

let rec via_from s cs via i =
  if i >= Array.length cs then -1
  else if cs.(i).dc_via = via && room_from cs.(i) 0 && pressure_ok s cs.(i)
  then i
  else via_from s cs via (i + 1)

(* A probe: counts nothing, so ticks and fault handling can look *)
let first_usable s p = usable_from s (cands s p) 0 false

(* ------------------------------------------------------------------ *)
(* Periodic work *)

(* One interface's full step: close the interval, then run the phase
   machine.  The detour probe runs only where [Phase.update] reads it:
   in detour, in back-pressure, and in push-data at or above engage. *)
let tick_port s p est ~pressure ~drained =
  Rate_estimator.tick est;
  let ph = phase p in
  let before = Phase.current ph in
  let ratio = Rate_estimator.ratio est in
  let after =
    Phase.update ph ~ratio
      ~detour_usable:
        ((before <> Phase.Push_data || ratio >= Config.engage_ratio)
        && first_usable s p >= 0)
      ~custody_pressure:pressure ~custody_drained:drained
  in
  if before <> after then
    match s.trace with
    | Some tr ->
      Trace.record tr ~time:(now s)
        (Trace.Phase_change
           { node = s.node; link = p.p_link.Link.id; phase = after })
    | None -> ()

(* Only ports on the walk are stepped.  A port that ends a step idle
   in push-data leaves it: push-data after any update means ratio <
   engage, and an interval with no bits multiplies r_a by 1 - alpha, so
   until the port notes bits again every tick would only decay r_a and
   [Phase.update] would return push-data.  [catch_up] replays those
   decays when the estimator is next noted or read.  A walk changes no
   custody, so [store]'s watermarks are read once.  Returns whether a
   port is still on the walk (a crashed router steps none, but a port
   noted while crashed stays on it). *)
let walk s ~crashed store =
  let pressure = Chunksim.Cache.above_high store in
  let drained = Chunksim.Cache.below_low store in
  let on = ref false in
  for i = 0 to Array.length s.ports - 1 do
    let p = s.ports.(i) in
    if p.walking then begin
      (match p.est with
      | Some est when not crashed -> (
        tick_port s p est ~pressure ~drained;
        match p.phase with
        | Some ph when Phase.current ph = Phase.Push_data ->
          p.walking <- false;
          p.synced <- ticks s
        | Some _ | None -> ())
      | Some _ | None -> ());
      if p.walking then on := true
    end
  done;
  !on

(* A crash loses every port's estimator and phase; flow-table slots
   hold port indices, so the ports are cleared in place *)
let reset s =
  Array.iter
    (fun p ->
      p.est <- None;
      p.phase <- None;
      p.walking <- false)
    s.ports

(* ------------------------------------------------------------------ *)
(* Read-outs *)

let phase_of_link s link_id =
  Option.bind (port_opt s link_id) (fun p -> Option.map Phase.current p.phase)

let anticipated_rate_of_link s link_id =
  Option.bind (port_opt s link_id) (fun p ->
      Option.map Rate_estimator.anticipated_rate (current_estimator s p))

let ratio_of_link s link_id =
  Option.bind (port_opt s link_id) (fun p ->
      Option.map Rate_estimator.ratio (current_estimator s p))

let estimator_links s =
  Array.fold_right
    (fun p acc -> if Option.is_some p.est then p.p_link.Link.id :: acc else acc)
    s.ports []

let phase_transitions s =
  Array.fold_left
    (fun acc p ->
      match p.phase with Some ph -> acc + Phase.transitions ph | None -> acc)
    0 s.ports
