(** Synthetic stand-ins for the nine Rocketfuel ISP PoP-level maps of
    the paper's Table 1.

    The real Rocketfuel data is not redistributable, so each ISP is a
    deterministic synthetic graph whose {e detour-availability profile}
    (fractions of links with 1-hop / 2-hop / 3+-hop / no detours)
    matches its Table 1 row.  The construction — a densely meshed core,
    attached rings and chains of controlled length, and single-homed
    stubs — mirrors how those classes arise in real ISPs: core mesh
    links detour in one hop, regional rings in as many hops as the ring
    is long, and customer tails not at all.  See DESIGN.md §3. *)

type isp =
  | Exodus
  | Vsnl
  | Level3
  | Sprint
  | Att
  | Ebone
  | Telstra
  | Tiscali
  | Verio

val all : isp list
(** Table 1 row order. *)

val name : isp -> string

val table1_row : isp -> float * float * float * float
(** The paper's reported percentages (1 hop, 2 hops, 3+ hops, N/A),
    each in [[0, 100]]. *)

val graph : isp -> Graph.t
(** The synthetic topology.  Deterministic: repeated calls return
    structurally identical graphs. *)

val fig4_isps : isp list
(** The three ISPs evaluated in Fig. 4: Telstra, Exodus, Tiscali. *)

(** {1 Generator (exposed for tests and ablations)} *)

type spec = {
  target_links : int;                     (** approximate undirected link count *)
  fractions : float * float * float * float; (** 1hop, 2hop, 3+, N/A — sum 1 *)
  core_capacity : float;
  ring_capacity : float;
  stub_capacity : float;
}

val spec : isp -> spec

val generate : spec -> Graph.t
(** Build a graph realising [spec] as closely as motif quantisation
    allows (classes come in units of 2–5 links). *)
