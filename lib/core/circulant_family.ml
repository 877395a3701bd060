module Graph = Gdpn_graph.Graph
module Builder = Gdpn_graph.Builder

let min_n ~k = (3 * k) + 6

let check ~n ~k =
  if k < 4 then invalid_arg "Circulant_family: requires k >= 4";
  if n < min_n ~k then
    invalid_arg
      (Printf.sprintf "Circulant_family: requires n >= %d for k = %d"
         (min_n ~k) k)

(* Layout of G(n,k):
     ids 0..m-1                  : C = S ∪ R, id = circulant label,
                                   S = labels 0..k+1, R = labels k+2..m-1
     ids m..m+k                  : I, labels 1..k+1
     ids m+k+1..m+2k+1           : O, labels 0..k
     ids m+2k+2..m+3k+2          : Ti, labels 1..k+1
     ids m+3k+3..m+4k+3          : To, labels 0..k          *)

let m_of ~n ~k = n - k - 2

let s_nodes ~n ~k =
  check ~n ~k;
  List.init (k + 2) Fun.id

let r_nodes ~n ~k =
  check ~n ~k;
  List.init (m_of ~n ~k - k - 2) (fun i -> k + 2 + i)

let add_circulant_edges b ~m ~k ~drop_s_unit_edges =
  let p = k / 2 in
  (* Offsets 1..p+1; drop unit-offset edges inside S (labels 0..k+1) when
     requested (the G(n,k) deletion). *)
  for c = 0 to m - 1 do
    for z = 1 to p + 1 do
      let d = (c + z) mod m in
      let both_in_s = c <= k + 1 && d <= k + 1 && d = c + 1 in
      if not (drop_s_unit_edges && z = 1 && both_in_s) then
        Graph.add_edge_if_absent b c d
    done
  done;
  (* Bisector edges for odd k. *)
  if k mod 2 = 1 then
    for c = 0 to m - 1 do
      Graph.add_edge_if_absent b c ((c + (m / 2)) mod m)
    done

let build ~n ~k =
  check ~n ~k;
  let m = m_of ~n ~k in
  let i_base = m in
  let o_base = m + k + 1 in
  let ti_base = m + (2 * k) + 2 in
  let to_base = m + (3 * k) + 3 in
  let order = m + (4 * k) + 4 in
  assert (order = n + (3 * k) + 2);
  let b = Graph.builder order in
  add_circulant_edges b ~m ~k ~drop_s_unit_edges:true;
  (* I (labels 1..k+1) and O (labels 0..k) are cliques. *)
  Builder.add_clique_on b (List.init (k + 1) (fun i -> i_base + i));
  Builder.add_clique_on b (List.init (k + 1) (fun i -> o_base + i));
  (* Label-matched edges.  I node at id i_base+j has label j+1;
     O node at id o_base+j has label j; same for Ti/To. *)
  for j = 0 to k do
    let lbl_i = j + 1 in
    Graph.add_edge b (ti_base + j) (i_base + j);
    (* I[lbl] - S[lbl]: S node id = its label. *)
    Graph.add_edge b (i_base + j) lbl_i;
    let lbl_o = j in
    Graph.add_edge b (o_base + j) lbl_o;
    Graph.add_edge b (o_base + j) (to_base + j)
  done;
  let kind =
    Array.init order (fun v ->
        if v < ti_base then Label.Processor
        else if v < to_base then Label.Input
        else Label.Output)
  in
  Instance.make ~graph:(Graph.freeze b) ~kind ~n ~k
    ~name:(Printf.sprintf "G(%d,%d) [circulant]" n k)
    ~strategy:(Instance.Circulant_layout { m })

(* The extended graph G'(n,k): all six sets have k+2 nodes (labels 0..k+1),
   S-S unit edges are present.  Layout mirrors [build] with one extra node
   per I/O/Ti/To set. *)
let extended ~n ~k =
  check ~n ~k;
  let m = m_of ~n ~k in
  let i_base = m in
  let o_base = m + k + 2 in
  let ti_base = m + (2 * (k + 2)) in
  let to_base = m + (3 * (k + 2)) in
  let order = m + (4 * (k + 2)) in
  assert (order = n + (3 * k) + 6);
  let b = Graph.builder order in
  add_circulant_edges b ~m ~k ~drop_s_unit_edges:false;
  Builder.add_clique_on b (List.init (k + 2) (fun i -> i_base + i));
  Builder.add_clique_on b (List.init (k + 2) (fun i -> o_base + i));
  for lbl = 0 to k + 1 do
    Graph.add_edge b (ti_base + lbl) (i_base + lbl);
    Graph.add_edge b (i_base + lbl) lbl;
    Graph.add_edge b (o_base + lbl) lbl;
    Graph.add_edge b (o_base + lbl) (to_base + lbl)
  done;
  let kind =
    Array.init order (fun v ->
        if v < ti_base then Label.Processor
        else if v < to_base then Label.Input
        else Label.Output)
  in
  (Graph.freeze b, kind)
