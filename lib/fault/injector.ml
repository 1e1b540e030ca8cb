type hooks = {
  link_down : link:int -> policy:Schedule.link_policy -> unit;
  link_up : link:int -> unit;
  node_crash : node:Topology.Node.id -> policy:Schedule.node_policy -> unit;
  node_restart : node:Topology.Node.id -> unit;
  burst_start : loss:float -> unit;
  burst_end : loss:float -> unit;
}

type t = { mutable fired : int }

let install eng sched hooks =
  let t = { fired = 0 } in
  List.iter
    (fun { Schedule.at; event } ->
      ignore
        (Sim.Engine.schedule_at eng ~time:at (fun () ->
             t.fired <- t.fired + 1;
             match event with
             | Schedule.Link_down { link; policy } ->
               hooks.link_down ~link ~policy
             | Schedule.Link_up { link } -> hooks.link_up ~link
             | Schedule.Node_crash { node; policy } ->
               hooks.node_crash ~node ~policy
             | Schedule.Node_restart { node } -> hooks.node_restart ~node
             | Schedule.Control_loss_burst { duration; loss } ->
               hooks.burst_start ~loss;
               ignore
                 (Sim.Engine.schedule eng ~delay:duration (fun () ->
                      hooks.burst_end ~loss)))))
    (Schedule.events sched);
  t

let fired t = t.fired
