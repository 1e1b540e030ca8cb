module Graph = Topology.Graph
module Link = Topology.Link
module Path = Topology.Path
module Net = Chunksim.Net

type flow_spec = {
  src : Topology.Node.id;
  dst : Topology.Node.id;
  chunks : int;
  start : float;
  content : int option;
}

type t = {
  cfg : Config.t;
  g : Graph.t;
  overload : Overload.Config.t;
  specs : flow_spec array;
  routes : Path.t array;
  eng : Sim.Engine.t;
  net : Net.t;
  ins : Instrumentation.t option;
  link_state : Topology.Link_state.t;
  registry : Router.registry;
  routers : Router.t array;
  fcts : float option array;
  data_routes : int list array;
  req_routes : int list array;
  install_sites : int list array;
  mutable completed : int;
  mutable finished_at : float option;
  mutable pending_disruptions : float list;
  mutable recovery_total : float;
  mutable recovery_count : int;
  mutable peak_custody : float;
}

let all_done w = w.completed = Array.length w.specs

(* Shortest-path lookup with one Dijkstra tree per distinct source,
   built on first use: resolving every flow costs at most one search
   per node, however many flows share a producer. *)
let route_finder ?forbidden_links g =
  let trees = Array.make (Graph.node_count g) None in
  fun src dst ->
    let tree =
      match trees.(src) with
      | Some t -> t
      | None ->
        let t = Topology.Dijkstra.run ?forbidden_links g src in
        trees.(src) <- Some t;
        t
    in
    Topology.Dijkstra.path_to tree dst

(* Route placement, at set-up ([Router.install_flow]) and on
   reconvergence ([Router.reroute_flow]).  PIT-less forwarding keeps
   no router state: the endpoints carry the path as label stacks, and
   a re-stamp leaves in-flight packets on their stale stack.
   Otherwise every node on the path gets its next hops both ways. *)
let place w op flow (path : Path.t) =
  if w.cfg.Config.pitless then begin
    w.data_routes.(flow) <- List.tl path.Path.nodes;
    w.req_routes.(flow) <- List.tl (List.rev path.Path.nodes)
  end
  else begin
    Path.iter_hops w.g path (fun node ~data_link ~req_link ->
        op w.routers.(node) ~flow ~data_link ~req_link ());
    if w.cfg.Config.flow_teardown then
      w.install_sites.(flow) <-
        List.fold_left
          (fun acc nd -> if List.mem nd acc then acc else nd :: acc)
          w.install_sites.(flow) path.Path.nodes
  end

(* Route reconvergence: detoured data is source-routed and survives
   an outage on its own, but requests and back-pressure carry only a
   flow id — their hop-by-hop state must follow the residual
   topology.  After every link or node transition each flow is
   re-resolved in the surviving graph and placed again; a partitioned
   flow keeps its stale state until the topology heals.  The link
   state is fixed for the duration of one call, so flows from the same
   source share one tree. *)
let reconverge w =
  let forbidden (l : Link.t) =
    not (Topology.Link_state.is_up w.link_state l.Link.id)
  in
  let route = route_finder ~forbidden_links:forbidden w.g in
  Array.iteri
    (fun flow spec ->
      (* a released flow stays released: resurrecting its entries
         would leak them for the rest of the run *)
      if not (w.cfg.Config.flow_teardown && w.fcts.(flow) <> None) then
        Option.iter (place w Router.reroute_flow flow)
          (route spec.src spec.dst))
    w.specs

let wire ~cfg ~horizon ~trace ~loss_rate ~obs ~check ~overload g specs =
  (* every flow's route, resolved once and before any state exists:
     router installs, label stacks, base delays and pace rates all read
     it *)
  let routes =
    let route = route_finder g in
    Array.map
      (fun spec ->
        match route spec.src spec.dst with
        | Some p -> p
        | None ->
          Printf.ksprintf invalid_arg "Protocol.run: flow %d -> %d unroutable"
            spec.src spec.dst)
      specs
  in
  let eng = Sim.Engine.create () in
  let net =
    let discipline =
      if cfg.Config.drr_scheduler then
        Chunksim.Iface.Drr cfg.Config.chunk_bits
      else Chunksim.Iface.Fifo_discipline
    in
    Net.create ~queue_bits:cfg.Config.queue_bits ~discipline ?loss_rate eng g
  in
  let trace = Instrumentation.new_trace ~trace ~obs ~check in
  let detours = Detour_table.create g in
  (* the link-state view exists in every run (all-up without faults,
     which is behaviourally identical to not having one) so router
     wiring does not depend on whether a schedule was passed *)
  let link_state = Topology.Link_state.create g in
  (* the run's periodic work: ticks and drains visit only the routers
     this registry lists *)
  let registry = Router.registry ~nodes:(Graph.node_count g) in
  (* each flow's content key, held once for every router *)
  let contents =
    Router.contents
      (Array.mapi (fun flow s -> Option.value s.content ~default:flow) specs)
  in
  let routers =
    Array.init (Graph.node_count g) (fun node ->
        Router.create ~cfg ~net ~node ~detours ~link_state ?trace ~overload
          ~registry ~contents ())
  in
  (* neighbour-pressure oracle for detour refusal: each router can ask
     any node's custody occupancy fraction.  Installed only under
     overload control, the one case that consults it. *)
  let on = overload <> Overload.Config.Off in
  if on then begin
    let pressure node =
      let cache = Router.cache routers.(node) in
      Chunksim.Cache.custody_occupancy cache /. Chunksim.Cache.capacity cache
    in
    Array.iter (fun r -> Router.set_neighbor_pressure r pressure) routers
  end;
  let ins =
    Instrumentation.create ~cfg ~horizon ~loss_rate ~obs ~check ~watchdog:on
      ~trace eng net routes routers
  in
  let n = Array.length specs in
  let w =
    { cfg; g; overload; specs; routes; eng; net; ins; link_state; registry;
      routers; fcts = Array.make n None; data_routes = Array.make n [];
      req_routes = Array.make n []; install_sites = Array.make n [];
      completed = 0; finished_at = None; pending_disruptions = [];
      recovery_total = 0.; recovery_count = 0; peak_custody = 0. }
  in
  Array.iteri (place w Router.install_flow) routes;
  w

(* Fault injection: the driver flips interfaces and detaches handlers
   mechanically; these callbacks layer protocol recovery (router
   failover, crash policy, reconvergence) on top, after the
   instrumentation's fault hooks.  Installing the driver schedules the
   fault events. *)
let attach_faults w faults =
  match faults with
  | Some sched when not (Fault.Schedule.is_empty sched) ->
    let { eng; ins; routers; _ } = w in
    let lost = Instrumentation.fault_loss ins in
    Net.set_fault_tap w.net lost;
    let disrupted () =
      w.pending_disruptions <- Sim.Engine.now eng :: w.pending_disruptions
    in
    let flip link ~up =
      Instrumentation.link_fault ins ~link ~up;
      if not up then disrupted ();
      Array.iter (fun r -> Router.on_link_flip r ~up) routers;
      reconverge w
    in
    Some
      (Fault.Driver.install ~link_state:w.link_state
         ~on_link_flip:flip
         ~on_node_crash:(fun node policy ->
           Instrumentation.node_fault ins ~node ~up:false;
           disrupted ();
           Instrumentation.custody_wiped ins ~node
             (Router.crash routers.(node) ~policy);
           reconverge w)
         ~on_node_restart:(fun node ->
           Instrumentation.node_fault ins ~node ~up:true;
           Router.restart routers.(node);
           reconverge w)
         ~on_data_killed:lost w.net sched)
  | Some _ | None -> None
