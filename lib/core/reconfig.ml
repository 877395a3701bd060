module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset
module Hamilton = Gdpn_graph.Hamilton

type outcome = Pipeline of Pipeline.t | No_pipeline | Gave_up

let default_budget = 2_000_000

(* Healthy terminal of the given kind adjacent to processor [p], if any. *)
let healthy_terminal inst ~alive kind p =
  Graph.fold_neighbours inst.Instance.graph p
    (fun acc v ->
      match acc with
      | Some _ -> acc
      | None ->
        if Bitset.mem alive v && Label.equal (Instance.kind_of inst v) kind
        then Some v
        else None)
    None

(* ------------------------------------------------------------------ *)
(* Generic spanning-path solver                                        *)
(* ------------------------------------------------------------------ *)

(* Every spanning-path search runs on a per-domain scratch cache, keyed
   on graph order.  A ctx is not domain-safe, so the cache lives in
   domain-local storage: persistent pool workers (and the calling domain)
   amortise [Hamilton.make_ctx] across solves instead of reallocating
   scratch per search.  Reuse is sound because a search is a leaf
   computation — the solver never starts a second search of the same
   order while one is running (the extension recursion only descends to
   strictly smaller inner orders). *)
let ctx_cache_key : (int, Hamilton.ctx) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let domain_ctx order =
  let tbl = Domain.DLS.get ctx_cache_key in
  match Hashtbl.find_opt tbl order with
  | Some c -> c
  | None ->
    let c = Hamilton.make_ctx order in
    Hashtbl.add tbl order c;
    c

let ham_search ?budget ?expansions g ~alive ~starts ~ends =
  Hamilton.solve_into ?budget ?expansions (domain_ctx (Graph.order g)) g ~alive
    ~starts ~ends

let generic ?(budget = default_budget) ?expansions inst ~faults =
  let order = Instance.order inst in
  let graph = inst.Instance.graph in
  let alive = Bitset.full order in
  Bitset.diff_into alive faults;
  let procs_alive = Instance.processor_set inst in
  Bitset.inter_into procs_alive alive;
  if Bitset.is_empty procs_alive then No_pipeline
  else begin
    (* Endpoint candidates, word-parallel: a processor can start (end) the
       pipeline iff its adjacency row meets the healthy input (output)
       terminals — one masked popcount per processor against the
       instance's precomputed kind masks, replacing the per-processor
       neighbour fold with label probes. *)
    let input_alive = Bitset.copy (Instance.input_mask inst) in
    Bitset.inter_into input_alive alive;
    let output_alive = Bitset.copy (Instance.output_mask inst) in
    Bitset.inter_into output_alive alive;
    let endpoint_candidates kind_alive =
      let s = Bitset.create order in
      Bitset.iter
        (fun p ->
          if Bitset.count_common (Graph.neighbours_mask graph p) kind_alive > 0
          then Bitset.add s p)
        procs_alive;
      s
    in
    let starts = endpoint_candidates input_alive in
    let ends = endpoint_candidates output_alive in
    if Bitset.is_empty starts || Bitset.is_empty ends then No_pipeline
    else
      match
        ham_search ~budget ?expansions inst.Instance.graph ~alive:procs_alive
          ~starts ~ends
      with
      | Hamilton.No_path -> No_pipeline
      | Hamilton.Budget_exceeded -> Gave_up
      | Hamilton.Path procs -> (
        match procs with
        | [] -> No_pipeline
        | head :: _ ->
          let rec last = function
            | [ x ] -> x
            | _ :: r -> last r
            | [] -> assert false
          in
          (* [first_common row kind_alive] is the smallest-id healthy
             terminal of that kind adjacent to the endpoint — the same
             node the old ascending neighbour fold picked. *)
          let tin =
            Option.get
              (Bitset.first_common (Graph.neighbours_mask graph head)
                 input_alive)
          in
          let tout =
            Option.get
              (Bitset.first_common
                 (Graph.neighbours_mask graph (last procs))
                 output_alive)
          in
          Pipeline { Pipeline.nodes = (tin :: procs) @ [ tout ] })
  end

(* ------------------------------------------------------------------ *)
(* Processor-clique scan (G(1,k), G(2,k): proofs of Lemmas 3.7, 3.9)   *)
(* ------------------------------------------------------------------ *)

let clique_scan inst ~faults =
  let order = Instance.order inst in
  let alive = Bitset.full order in
  Bitset.diff_into alive faults;
  let healthy =
    List.filter (fun p -> Bitset.mem alive p) (Instance.processors inst)
  in
  let input_of p = healthy_terminal inst ~alive Label.Input p in
  let output_of p = healthy_terminal inst ~alive Label.Output p in
  match healthy with
  | [] -> No_pipeline
  | [ c ] -> (
    match (input_of c, output_of c) with
    | Some tin, Some tout -> Pipeline { Pipeline.nodes = [ tin; c; tout ] }
    | _ -> No_pipeline)
  | _ -> (
    (* Find distinct endpoints c (input side) and d (output side); the
       clique lets any ordering of the remaining healthy processors join
       them. *)
    let candidate =
      List.find_map
        (fun c ->
          match input_of c with
          | None -> None
          | Some tin ->
            List.find_map
              (fun d ->
                if d = c then None
                else
                  match output_of d with
                  | None -> None
                  | Some tout -> Some (c, tin, d, tout))
              healthy)
        healthy
    in
    match candidate with
    | None -> No_pipeline
    | Some (c, tin, d, tout) ->
      let middle = List.filter (fun p -> p <> c && p <> d) healthy in
      Pipeline { Pipeline.nodes = (tin :: c :: middle) @ [ d; tout ] })

(* ------------------------------------------------------------------ *)
(* Extension recursion (proof of Lemma 3.6)                            *)
(* ------------------------------------------------------------------ *)

(* In an extension instance, the fresh input terminals have ids
   [order inner .. order inner + k]; each is attached to a relabelled node
   (an input terminal of the inner instance, now a processor).  The inner
   pipeline's input endpoint is one of those relabelled nodes. *)

let rec extension ?budget inst inner ~faults =
  let graph = inst.Instance.graph in
  let inner_order = Instance.order inner in
  let fresh_terminals = Instance.inputs inst in
  let mate term =
    (* fresh terminal -> relabelled node *)
    (Graph.neighbours graph term).(0)
  in
  let relabelled = List.map mate fresh_terminals in
  let restrict_faults () =
    let f = Bitset.create inner_order in
    Bitset.iter (fun v -> if v < inner_order then Bitset.add f v) faults;
    f
  in
  let faulty_fresh =
    List.filter (fun t -> Bitset.mem faults t) fresh_terminals
  in
  let solve_inner inner_faults =
    match solve ?budget inner ~faults:inner_faults with
    | Pipeline p -> Some (Pipeline.normalise inner p)
    | No_pipeline | Gave_up -> None
  in
  let finish nodes =
    (* Revalidation below (in [solve]) guards correctness; here we only
       assemble. *)
    Pipeline { Pipeline.nodes }
  in
  match faulty_fresh with
  | [] -> (
    (* Case 1: no fresh terminal is faulty. *)
    match solve_inner (restrict_faults ()) with
    | None -> generic ?budget inst ~faults
    | Some inner_pipe -> (
      match inner_pipe.Pipeline.nodes with
      | [] -> generic ?budget inst ~faults
      | i1 :: _ ->
        let u =
          List.filter
            (fun v -> v <> i1 && not (Bitset.mem faults v))
            relabelled
        in
        let j2 =
          let owner = match List.rev u with [] -> i1 | x :: _ -> x in
          List.find (fun t -> mate t = owner) fresh_terminals
        in
        finish ((j2 :: List.rev u) @ inner_pipe.Pipeline.nodes)))
  | j3 :: _ -> (
    (* Case 2: some fresh terminal j3 is faulty.  Pick a healthy relabelled
       node i4 whose fresh terminal is healthy, mark i4 faulty for the inner
       instance (trading it against j3), and splice it back in by hand. *)
    let i4_candidate =
      List.find_opt
        (fun t -> (not (Bitset.mem faults t)) && not (Bitset.mem faults (mate t)))
        fresh_terminals
    in
    match i4_candidate with
    | None -> generic ?budget inst ~faults
    | Some j4 -> (
      let i4 = mate j4 in
      let inner_faults = restrict_faults () in
      Bitset.add inner_faults i4;
      ignore j3;
      match solve_inner inner_faults with
      | None -> generic ?budget inst ~faults
      | Some inner_pipe -> (
        match inner_pipe.Pipeline.nodes with
        | [] -> generic ?budget inst ~faults
        | i1 :: _ ->
          let u =
            List.filter
              (fun v -> v <> i1 && v <> i4 && not (Bitset.mem faults v))
              relabelled
          in
          finish ((j4 :: i4 :: u) @ inner_pipe.Pipeline.nodes))))

and circulant ?budget inst ~m ~faults =
  (* Region decomposition for the §3.4 family (the shape the Theorem 3.17
     embedding takes): one clique run through the healthy I nodes, a
     spanning sweep of the healthy ring nodes between two S bridges, one
     clique run through the healthy O nodes.  Only the ring sweep needs
     search, and with both endpoints pinned the band search is fast.  Falls
     back to the generic solver if no bridge combination works (the
     decomposition is a sufficient shape, not a proven-complete one). *)
  let k = inst.Instance.k in
  let graph = inst.Instance.graph in
  let healthy v = not (Bitset.mem faults v) in
  let i_id l = m + l - 1 (* labels 1..k+1 *)
  and o_id l = m + k + 1 + l (* labels 0..k *)
  and ti_id l = m + (2 * k) + 2 + l - 1
  and to_id l = m + (3 * k) + 3 + l in
  let healthy_i =
    List.filter healthy (List.init (k + 1) (fun j -> i_id (j + 1)))
  in
  let healthy_o = List.filter healthy (List.init (k + 1) o_id) in
  let a_cands =
    List.filter
      (fun l -> healthy (ti_id l) && healthy (i_id l))
      (List.init (k + 1) (fun j -> j + 1))
  in
  let b_cands =
    List.filter
      (fun l -> healthy (i_id l) && healthy l)
      (List.init (k + 1) (fun j -> j + 1))
  in
  let c_cands =
    List.filter (fun l -> healthy l && healthy (o_id l)) (List.init (k + 1) Fun.id)
  in
  let d_cands =
    List.filter
      (fun l -> healthy (o_id l) && healthy (to_id l))
      (List.init (k + 1) Fun.id)
  in
  let ring_alive = Bitset.create (Instance.order inst) in
  for v = 0 to m - 1 do
    if healthy v then Bitset.add ring_alive v
  done;
  let clique_run nodes ~first ~last =
    (* Order a clique's nodes as a run from [first] to [last]. *)
    first :: List.filter (fun v -> v <> first && v <> last) nodes
    @ if last = first then [] else [ last ]
  in
  let pick_endpoint cands ~bridge ~pool =
    (* Entry/exit label for a clique region: any candidate distinct from the
       bridge label, or equal to it when the region has a single healthy
       node. *)
    if List.length pool <= 1 then
      if List.mem bridge cands then Some bridge else None
    else List.find_opt (fun l -> l <> bridge) cands
  in
  let attempt b c =
    if b = c then None
    else
      let sub_budget = 100_000 in
      match
        ham_search ~budget:sub_budget graph ~alive:ring_alive
          ~starts:(Bitset.of_list (Instance.order inst) [ b ])
          ~ends:(Bitset.of_list (Instance.order inst) [ c ])
      with
      | Hamilton.No_path | Hamilton.Budget_exceeded -> None
      | Hamilton.Path ring_path -> (
        match
          ( pick_endpoint a_cands ~bridge:b ~pool:healthy_i,
            pick_endpoint d_cands ~bridge:c ~pool:healthy_o )
        with
        | Some a, Some d ->
          let i_run = clique_run healthy_i ~first:(i_id a) ~last:(i_id b) in
          let o_run = clique_run healthy_o ~first:(o_id c) ~last:(o_id d) in
          Some
            ((ti_id a :: i_run) @ ring_path @ o_run @ [ to_id d ])
        | _ -> None)
  in
  let found =
    List.find_map
      (fun b -> List.find_map (fun c -> attempt b c) c_cands)
      b_cands
  in
  match found with
  | Some nodes when Pipeline.is_valid inst ~faults nodes ->
    Pipeline { Pipeline.nodes }
  | Some _ | None -> generic ?budget inst ~faults

and dispatch ?budget inst ~faults =
  match inst.Instance.strategy with
  | Instance.Generic -> generic ?budget inst ~faults
  | Instance.Processor_clique -> clique_scan inst ~faults
  | Instance.Extension inner -> extension ?budget inst inner ~faults
  | Instance.Circulant_layout { m } -> circulant ?budget inst ~m ~faults

(* [ctx] is accepted and unused: every search runs on the per-domain
   cache above, and no result ever depended on where the scratch lived. *)
and solve ?budget ?ctx:_ inst ~faults =
  match dispatch ?budget inst ~faults with
  | Pipeline p when Pipeline.is_valid inst ~faults p.Pipeline.nodes ->
    Pipeline p
  | Pipeline _ ->
    (* A constructive solver produced a bogus witness: fall back to the
       generic solver rather than returning it.  (This indicates a bug; the
       test suite asserts it never happens for in-spec fault sets.) *)
    generic ?budget inst ~faults
  | (No_pipeline | Gave_up) as r -> r

let solve_list ?budget inst ~faults =
  solve ?budget inst
    ~faults:(Bitset.of_list (Instance.order inst) faults)

let solve_generic ?budget ?expansions inst ~faults =
  generic ?budget ?expansions inst ~faults

let make_ctx inst = Hamilton.make_ctx (Instance.order inst)
