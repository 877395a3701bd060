module Graph = Gdpn_graph.Graph
module Combinat = Gdpn_graph.Combinat

type census = {
  graphs_examined : int;
  assignments_examined : int;
  solutions_found : int;
}

(* Largest sets first, stopping at the first failure: a census candidate
   that is not k-GD almost always fails at size k, and the Task's walk
   would check every smaller set before reaching one.  As a Task drain
   (Verify.exhaustive ~max_failures:1) `gdp census -n 5 -k 2` took
   1.48 s against 0.40 s, and `gdp impossibility` 1.62 s against 0.54 s
   (medians of six alternated runs on a 2-vCPU host), so this loop
   stays. *)
let is_k_gd_quick inst =
  let order = Instance.order inst in
  let k = inst.Instance.k in
  let model = Fault_model.node inst in
  let ok = ref true in
  (try
     for size = k downto 0 do
       Combinat.iter_choose order size (fun buf ->
           match Verify.check_model_set model (Array.to_list buf) with
           | Ok _ -> ()
           | Error _ ->
             ok := false;
             raise Exit)
     done
   with Exit -> ());
  !ok

(* Enumerate every labeled simple graph on [nodes] vertices with the given
   degree sequence, by deciding each potential edge in lexicographic order
   with residual-degree pruning. *)
let enumerate_degree_sequence ~nodes ~degrees yield =
  let pairs =
    let acc = ref [] in
    for u = nodes - 1 downto 0 do
      for v = nodes - 1 downto u + 1 do
        acc := (u, v) :: !acc
      done
    done;
    Array.of_list !acc
  in
  let npairs = Array.length pairs in
  (* remaining.(i).(v): number of pairs with index >= i involving v. *)
  let remaining = Array.make_matrix (npairs + 1) nodes 0 in
  for i = npairs - 1 downto 0 do
    Array.blit remaining.(i + 1) 0 remaining.(i) 0 nodes;
    let u, v = pairs.(i) in
    remaining.(i).(u) <- remaining.(i).(u) + 1;
    remaining.(i).(v) <- remaining.(i).(v) + 1
  done;
  let residual = Array.copy degrees in
  let chosen = ref [] in
  let rec go i =
    if i = npairs then begin
      if Array.for_all (fun r -> r = 0) residual then yield (List.rev !chosen)
    end
    else begin
      let u, v = pairs.(i) in
      let feasible () =
        Array.for_all
          (fun w -> residual.(w) <= remaining.(i + 1).(w))
          [| u; v |]
        (* Global sanity: no node can still need more than what's left. *)
        &&
        let ok = ref true in
        for w = 0 to nodes - 1 do
          if residual.(w) > remaining.(i + 1).(w) then ok := false
        done;
        !ok
      in
      (* Option 1: include the edge. *)
      if residual.(u) > 0 && residual.(v) > 0 then begin
        residual.(u) <- residual.(u) - 1;
        residual.(v) <- residual.(v) - 1;
        chosen := (u, v) :: !chosen;
        if feasible () then go (i + 1);
        chosen := List.tl !chosen;
        residual.(u) <- residual.(u) + 1;
        residual.(v) <- residual.(v) + 1
      end;
      (* Option 2: exclude it. *)
      if feasible () then go (i + 1)
    end
  in
  go 0

let standard_census ~n ~k =
  if n < k + 2 then
    invalid_arg
      "Impossibility.standard_census: n < k+2 (see lemma_3_11_counting)";
  let procs = n + k in
  let terminals = 2 * (k + 1) in
  let free = procs - terminals in
  assert (free >= 0);
  (* Free processors (full processor degree k+2) pinned to ids 0..free-1;
     attached processors (one terminal, k+1 processor neighbours) follow. *)
  let degrees =
    Array.init procs (fun v -> if v < free then k + 2 else k + 1)
  in
  let attached = List.init terminals (fun i -> free + i) in
  let graphs = ref 0 in
  let assignments = ref 0 in
  let solutions = ref 0 in
  enumerate_degree_sequence ~nodes:procs ~degrees (fun edges ->
      incr graphs;
      let proc_graph = Graph.of_edges procs edges in
      Combinat.iter_choose terminals (k + 1) (fun in_buf ->
          incr assignments;
          let input_procs =
            List.map (fun i -> free + i) (Array.to_list in_buf)
          in
          let attach =
            List.map
              (fun p ->
                ( p,
                  if List.mem p input_procs then Label.Input else Label.Output
                ))
              attached
          in
          let inst =
            Special.of_processor_graph ~n ~k
              ~name:(Printf.sprintf "census(%d,%d) candidate" n k)
              ~strategy:Instance.Generic proc_graph attach
          in
          if is_k_gd_quick inst then incr solutions));
  {
    graphs_examined = !graphs;
    assignments_examined = !assignments;
    solutions_found = !solutions;
  }

let lemma_3_14 () = standard_census ~n:5 ~k:2

let lemma_3_11_counting ~k = 2 * (k + 1) > k + 3

(* Rebuild an instance with one processor-processor edge removed. *)
let without_edge inst (u, v) =
  let g = inst.Instance.graph in
  let b = Graph.builder (Graph.order g) in
  List.iter
    (fun (a, c) -> if not ((a, c) = (u, v) || (a, c) = (v, u)) then Graph.add_edge b a c)
    (Graph.edges g);
  Instance.make ~graph:(Graph.freeze b)
    ~kind:(Array.init (Instance.order inst) (Instance.kind_of inst))
    ~n:inst.Instance.n ~k:inst.Instance.k
    ~name:(inst.Instance.name ^ " minus edge")
    ~strategy:Instance.Generic

let processor_edges inst =
  List.filter
    (fun (u, v) ->
      Label.equal (Instance.kind_of inst u) Label.Processor
      && Label.equal (Instance.kind_of inst v) Label.Processor)
    (Graph.edges inst.Instance.graph)

let edge_necessity inst =
  List.for_all
    (fun e -> not (is_k_gd_quick (without_edge inst e)))
    (processor_edges inst)

let g1_clique_edge_necessity ~k = edge_necessity (Small_n.g1 ~k)
let g2_clique_edge_necessity ~k = edge_necessity (Small_n.g2 ~k)

(* A G(2,k)-like graph with I = O: processors form a clique; one processor u
   has no terminal, one processor w has two (an input and an output), the
   rest have one of each.  The Lemma 3.9 proof (Case 1) shows this cannot be
   a solution graph. *)
let g2_io_overlap_impossible ~k =
  let procs = k + 2 in
  let proc_graph = Gdpn_graph.Builder.clique procs in
  (* u = processor 0 gets nothing; w = processor 1 gets two terminals. *)
  let attach =
    (1, Label.Input) :: (1, Label.Output)
    :: List.concat_map
         (fun p -> [ (p, Label.Input); (p, Label.Output) ])
         (List.init k (fun i -> i + 2))
  in
  let inst =
    Special.of_processor_graph ~n:2 ~k ~name:"G(2,k) with I = O"
      ~strategy:Instance.Generic proc_graph attach
  in
  not (is_k_gd_quick inst)
