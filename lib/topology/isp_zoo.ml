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

let all =
  [ Exodus; Vsnl; Level3; Sprint; Att; Ebone; Telstra; Tiscali; Verio ]

let name = function
  | Exodus -> "Exodus (US)"
  | Vsnl -> "VSNL (IN)"
  | Level3 -> "Level 3"
  | Sprint -> "Sprint (US)"
  | Att -> "AT&T (US)"
  | Ebone -> "EBONE (EU)"
  | Telstra -> "Telstra (AUS)"
  | Tiscali -> "Tiscali (EU)"
  | Verio -> "Verio (US)"

let table1_row = function
  | Exodus -> (49.77, 35.48, 6.68, 8.06)
  | Vsnl -> (25.00, 33.33, 0.00, 41.67)
  | Level3 -> (92.22, 6.55, 0.68, 0.55)
  | Sprint -> (56.66, 37.08, 1.81, 4.45)
  | Att -> (34.84, 61.69, 0.72, 2.74)
  | Ebone -> (50.66, 36.22, 6.30, 6.82)
  | Telstra -> (70.05, 10.42, 1.06, 18.47)
  | Tiscali -> (24.50, 39.85, 10.15, 25.50)
  | Verio -> (71.50, 17.09, 1.74, 9.68)

type spec = {
  target_links : int;
  fractions : float * float * float * float;
  core_capacity : float;
  ring_capacity : float;
  stub_capacity : float;
}

let spec isp =
  let f1, f2, f3, fna = table1_row isp in
  let target_links =
    match isp with
    | Exodus -> 217
    | Vsnl -> 12
    | Level3 -> 365
    | Sprint -> 330
    | Att -> 440
    | Ebone -> 254
    | Telstra -> 325
    | Tiscali -> 200
    | Verio -> 344
  in
  {
    target_links;
    fractions = (f1 /. 100., f2 /. 100., f3 /. 100., fna /. 100.);
    core_capacity = 40e9;
    ring_capacity = 10e9;
    stub_capacity = 2.5e9;
  }

(* Decompose [n] links into motifs of the given link sizes, minimising
   the leftover.  Brute-force over the count of the first motif size —
   sizes and counts here are tiny. *)
let decompose n size_a size_b =
  assert (size_a > 0 && size_b > 0);
  let best = ref (0, 0, n) in
  let max_a = n / size_a in
  for a = 0 to max_a do
    let rest = n - (a * size_a) in
    let b = rest / size_b in
    let leftover = rest - (b * size_b) in
    let _, _, best_left = !best in
    if leftover < best_left then best := (a, b, leftover)
  done;
  !best

(* The motif construction relies on three facts (proved by the detour
   tests): (i) every link of a K_c core (c >= 3) has a 1-hop detour;
   (ii) a cycle of length k attached to a single core node gives k links
   whose shortest detour is the rest of the cycle, i.e. class k - 2
   intermediates... more precisely class (k - 1) - 1 = k - 2?  We use
   triangles (class 1), squares (class 2) and pentagons (class 3);
   (iii) a chain of k inner nodes slung between two adjacent core nodes
   gives k + 1 links of class k. *)
let generate s =
  let f1, f2, f3, _fna = s.fractions in
  let total = s.target_links in
  let n1 = int_of_float (Float.round (f1 *. float_of_int total)) in
  let n2 = int_of_float (Float.round (f2 *. float_of_int total)) in
  let n3 = int_of_float (Float.round (f3 *. float_of_int total)) in
  let na = max 0 (total - n1 - n2 - n3) in
  (* core: largest clique within the 1-hop budget, at least a triangle *)
  let core_links c = c * (c - 1) / 2 in
  let c = ref 3 in
  while core_links (!c + 1) <= n1 do
    incr c
  done;
  let c = !c in
  let rem1 = max 0 (n1 - core_links c) in
  (* 1-hop leftovers: triangles (3 links) and 1-inner-node chains (2) *)
  let triangles, chains1, _left1 = decompose rem1 3 2 in
  (* 2-hop: squares (4 links) and 2-inner-node chains (3 links) *)
  let squares, chains2, _left2 = decompose n2 4 3 in
  (* 3+: pentagons (5 links) and 3-inner-node chains (4 links) *)
  let pentagons, chains3, _left3 = decompose n3 5 4 in
  let b = Graph.Builder.create () in
  let core =
    Array.init c (fun i ->
        Graph.Builder.add_node b ~role:Node.Core (Printf.sprintf "core%d" i))
  in
  let core_edge u v =
    Graph.Builder.add_edge b ~capacity:s.core_capacity ~delay:2e-3 u v
  in
  let ring_edge u v =
    Graph.Builder.add_edge b ~capacity:s.ring_capacity ~delay:3e-3 u v
  in
  let stub_edge u v =
    Graph.Builder.add_edge b ~capacity:s.stub_capacity ~delay:5e-3 u v
  in
  for i = 0 to c - 1 do
    for j = i + 1 to c - 1 do
      core_edge core.(i) core.(j)
    done
  done;
  (* round-robin attachment over core nodes *)
  let attach_counter = ref 0 in
  let next_core () =
    let h = core.(!attach_counter mod c) in
    incr attach_counter;
    h
  in
  let fresh = ref 0 in
  let new_node role prefix =
    let id =
      Graph.Builder.add_node b ~role (Printf.sprintf "%s%d" prefix !fresh)
    in
    incr fresh;
    id
  in
  (* cycle of [k] total nodes including the core anchor *)
  let attach_cycle k =
    let h = next_core () in
    let inner = Array.init (k - 1) (fun _ -> new_node Node.Aggregation "agg") in
    ring_edge h inner.(0);
    for i = 0 to k - 3 do
      ring_edge inner.(i) inner.(i + 1)
    done;
    ring_edge inner.(k - 2) h
  in
  (* chain with [k] inner nodes between two adjacent core anchors *)
  let attach_chain k =
    let h1 = next_core () in
    let h2 = core.((!attach_counter) mod c) in
    let h2 = if h2 = h1 then core.((!attach_counter + 1) mod c) else h2 in
    let inner = Array.init k (fun _ -> new_node Node.Aggregation "agg") in
    ring_edge h1 inner.(0);
    for i = 0 to k - 2 do
      ring_edge inner.(i) inner.(i + 1)
    done;
    ring_edge inner.(k - 1) h2
  in
  for _ = 1 to triangles do
    attach_cycle 3
  done;
  for _ = 1 to chains1 do
    attach_chain 1
  done;
  for _ = 1 to squares do
    attach_cycle 4
  done;
  for _ = 1 to chains2 do
    attach_chain 2
  done;
  for _ = 1 to pentagons do
    attach_cycle 5
  done;
  for _ = 1 to chains3 do
    attach_chain 3
  done;
  for _ = 1 to na do
    let h = next_core () in
    let leaf = new_node Node.Edge "stub" in
    stub_edge h leaf
  done;
  Graph.Builder.build b

(* the memo table is the one piece of global mutable state parallel
   sweep jobs can reach (every job calls [graph]), so it is
   mutex-protected; generation is deterministic, so racing domains
   would compute equal graphs either way — the lock just keeps the
   Hashtbl itself coherent *)
let cache : (isp, Graph.t) Hashtbl.t = Hashtbl.create 9
let cache_lock = Mutex.create ()

let graph isp =
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache isp with
      | Some g -> g
      | None ->
        let g = generate (spec isp) in
        Hashtbl.add cache isp g;
        g)

let fig4_isps = [ Telstra; Exodus; Tiscali ]
