(** Traffic generation: Poisson flow arrivals between random node
    pairs, with configurable size distributions — the workload of the
    paper's Fig. 4 evaluation. *)

type size_dist =
  | Fixed of float                      (** bits *)
  | Exponential of float                (** mean bits *)
  | Pareto of { shape : float; mean : float }
      (** heavy-tailed; [shape > 1] so the mean exists *)

(** Which nodes may source/sink traffic. *)
type endpoints =
  | Any_pair            (** uniform over distinct connected pairs *)
  | Role_pairs of Topology.Node.role list
      (** both endpoints drawn from nodes with one of these roles;
          falls back to [Any_pair] when fewer than two such nodes *)

type t

val create :
  ?endpoints:endpoints -> arrival_rate:float -> size:size_dist ->
  seed:int64 -> Topology.Graph.t -> t
(** [arrival_rate] in flows per second.
    @raise Invalid_argument if [arrival_rate <= 0.] or the graph has
    fewer than two nodes. *)

val next_interarrival : t -> float
(** Exponential with mean [1 / arrival_rate]. *)

val draw_flow : t -> time:float -> id:int -> (Topology.Node.id * Topology.Node.id * float)
(** [(src, dst, size)]; src and dst are distinct. *)

