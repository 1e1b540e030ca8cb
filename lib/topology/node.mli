(** Node identifiers and attributes.

    Nodes are dense integer identifiers assigned by {!Graph} at
    construction time; [0 <= id < Graph.node_count g].  A node carries a
    human-readable name and a role used by capacity/delay assignment in
    the topology builders. *)

type id = int

(** Role of a node in an ISP-like topology.  Used by {!Isp_zoo} and
    {!Builders} to assign link capacities, and by traffic generators to
    choose sources and sinks. *)
type role =
  | Core        (** densely meshed backbone PoP *)
  | Aggregation (** regional/metro ring node *)
  | Edge        (** customer-facing stub node *)
  | Host        (** end host attached to the network *)

type t = {
  id : id;
  name : string;
  role : role;
}

val make : ?role:role -> id -> string -> t
(** [make id name] builds a node record; [role] defaults to [Core]. *)

