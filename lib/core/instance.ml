module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset
module Dot = Gdpn_graph.Dot

type t = {
  graph : Graph.t;
  kind : Label.t array;
  n : int;
  k : int;
  name : string;
  strategy : strategy;
  input_mask : Bitset.t;
      (** nodes labelled Input, built once at {!make}; shared, never
          mutated — accessors hand out copies *)
  output_mask : Bitset.t;
  processor_mask : Bitset.t;
}

and strategy =
  | Generic
  | Processor_clique
  | Extension of t
  | Circulant_layout of { m : int }

let make ~graph ~kind ~n ~k ~name ~strategy =
  if Array.length kind <> Graph.order graph then
    invalid_arg "Instance.make: kind array length mismatch";
  if n < 1 then invalid_arg "Instance.make: n must be >= 1";
  if k < 1 then invalid_arg "Instance.make: k must be >= 1";
  let order = Graph.order graph in
  let mask target =
    let s = Bitset.create order in
    Array.iteri (fun v l -> if Label.equal l target then Bitset.add s v) kind;
    s
  in
  {
    graph;
    kind;
    n;
    k;
    name;
    strategy;
    input_mask = mask Label.Input;
    output_mask = mask Label.Output;
    processor_mask = mask Label.Processor;
  }

let order t = Graph.order t.graph

let nodes_of_kind t target =
  let acc = ref [] in
  for v = order t - 1 downto 0 do
    if Label.equal t.kind.(v) target then acc := v :: !acc
  done;
  !acc

let inputs t = nodes_of_kind t Label.Input
let outputs t = nodes_of_kind t Label.Output
let processors t = nodes_of_kind t Label.Processor

let input_mask t = t.input_mask
let output_mask t = t.output_mask
let processor_mask t = t.processor_mask
let processor_set t = Bitset.copy t.processor_mask

let kind_of t v = t.kind.(v)

let is_node_optimal t =
  List.length (inputs t) = t.k + 1
  && List.length (outputs t) = t.k + 1
  && List.length (processors t) = t.n + t.k

let is_standard t =
  is_node_optimal t
  && List.for_all (fun v -> Graph.degree t.graph v = 1) (inputs t)
  && List.for_all (fun v -> Graph.degree t.graph v = 1) (outputs t)

let attached_processor t terminal =
  if not (Label.is_terminal t.kind.(terminal)) then
    invalid_arg "Instance.attached_processor: not a terminal";
  match Graph.neighbours t.graph terminal with
  | [| p |] when Label.equal t.kind.(p) Label.Processor -> p
  | _ -> invalid_arg "Instance.attached_processor: terminal degree is not 1"

let adjacent_processors t terminals =
  List.sort_uniq compare
    (List.concat_map
       (fun term ->
         Graph.fold_neighbours t.graph term
           (fun acc v ->
             if Label.equal t.kind.(v) Label.Processor then v :: acc else acc)
           [])
       terminals)

let entry_processors t = adjacent_processors t (inputs t)
let exit_processors t = adjacent_processors t (outputs t)

let max_processor_degree t =
  List.fold_left (fun m v -> max m (Graph.degree t.graph v)) 0 (processors t)

let symmetry ?(reversal = true) t =
  let colour v =
    match t.kind.(v) with
    | Label.Processor -> 0
    | Label.Input -> 1
    | Label.Output -> 2
  in
  let pure = Gdpn_graph.Auto.automorphisms ~colour t.graph in
  if not (reversal && (inputs t <> [] || outputs t <> [])) then pure
  else
    (* A graph automorphism swapping the input and output classes maps
       pipelines to reversed pipelines, which are pipelines too, so it
       preserves fault-set solvability just like the pure group.  It swaps
       colours, hence lies outside [pure]; its square and its conjugates of
       [pure] are colour-preserving, hence inside — so adjoining it exactly
       doubles the group. *)
    let swapped v =
      match t.kind.(v) with
      | Label.Processor -> 0
      | Label.Input -> 2
      | Label.Output -> 1
    in
    match
      Gdpn_graph.Iso.find_isomorphism ~colour_a:colour ~colour_b:swapped
        t.graph t.graph
    with
    | Some phi -> Gdpn_graph.Auto.adjoin_involution pure phi
    | None -> pure

let relabel t ~perm =
  let n = order t in
  if Array.length perm <> n then invalid_arg "Instance.relabel: length";
  let seen = Array.make n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= n || seen.(p) then
        invalid_arg "Instance.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  let graph =
    Graph.of_edges n
      (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges t.graph))
  in
  let kind = Array.make n Label.Processor in
  Array.iteri (fun v k -> kind.(perm.(v)) <- k) t.kind;
  make ~graph ~kind ~n:t.n ~k:t.k
    ~name:(t.name ^ " [relabeled]")
    ~strategy:Generic

let pp ppf t =
  Format.fprintf ppf "%s: n=%d k=%d, %d nodes (%d in, %d out, %d proc), max proc degree %d"
    t.name t.n t.k (order t)
    (List.length (inputs t))
    (List.length (outputs t))
    (List.length (processors t))
    (max_processor_degree t)

let to_dot ?(faults = []) ?(pipeline = []) t =
  let style v =
    let base = Dot.default_style v in
    let shape, color =
      match t.kind.(v) with
      | Label.Input -> ("box", "blue")
      | Label.Output -> ("diamond", "darkgreen")
      | Label.Processor -> ("circle", "black")
    in
    { base with Dot.shape; color; filled = List.mem v faults }
  in
  let rec pipeline_edges = function
    | a :: (b :: _ as rest) -> (a, b) :: pipeline_edges rest
    | [ _ ] | [] -> []
  in
  Dot.render ~name:"gdpn" ~style ~highlight_edges:(pipeline_edges pipeline)
    t.graph
