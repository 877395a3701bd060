module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset
module Auto = Gdpn_graph.Auto

type elt =
  | Node of int
  | Link of int * int
  | Color of int
  | Neighborhood of int

type kind = Knode | Kmixed | Kcolored | Kneighbor

type t = {
  inst : Instance.t;
  kind : kind;
  elts : elt array;
  index : (elt, int) Hashtbl.t;
  (* Link-degraded instances keyed by the dead-link list; shared across
     verification domains, hence the lock.  Bounded: beyond the limit the
     model keeps answering correctly but stops retaining. *)
  degraded : (string, Instance.t) Hashtbl.t;
  lock : Mutex.t;
}

let degraded_limit = 8192

let norm (u, v) = if u < v then (u, v) else (v, u)

let make inst kind elts =
  let index = Hashtbl.create (2 * Array.length elts) in
  Array.iteri (fun i e -> Hashtbl.replace index e i) elts;
  { inst; kind; elts; index; degraded = Hashtbl.create 64; lock = Mutex.create () }

let node inst =
  let order = Instance.order inst in
  make inst Knode (Array.init order (fun v -> Node v))

let mixed inst =
  let order = Instance.order inst in
  let edges = Graph.edges inst.Instance.graph in
  let elts =
    Array.append
      (Array.init order (fun v -> Node v))
      (Array.of_list (List.map (fun (u, v) -> Link (u, v)) edges))
  in
  make inst Kmixed elts

let colored inst =
  let order = Instance.order inst in
  make inst Kcolored (Array.init order (fun c -> Color c))

let neighbor inst =
  let order = Instance.order inst in
  make inst Kneighbor (Array.init order (fun v -> Neighborhood v))

let of_name inst = function
  | "node" -> Some (node inst)
  | "mixed" -> Some (mixed inst)
  | "colored" -> Some (colored inst)
  | "neighbor" -> Some (neighbor inst)
  | _ -> None

let instance t = t.inst

let name t =
  match t.kind with
  | Knode -> "node"
  | Kmixed -> "mixed"
  | Kcolored -> "colored"
  | Kneighbor -> "neighbor"

let id t =
  match t.kind with Knode -> 0 | Kmixed -> 1 | Kcolored -> 2 | Kneighbor -> 3

let size t = Array.length t.elts
let max_faults t = t.inst.Instance.k
let is_node t = t.kind = Knode

let element t i =
  if i < 0 || i >= Array.length t.elts then
    invalid_arg "Fault_model.element: index out of range";
  t.elts.(i)

let index_of t e =
  let e =
    match e with
    | Link (u, v) ->
      let u, v = norm (u, v) in
      Link (u, v)
    | e -> e
  in
  Hashtbl.find_opt t.index e

let elt_to_string = function
  | Node v -> string_of_int v
  | Link (u, v) -> Printf.sprintf "%d-%d" u v
  | Color c -> Printf.sprintf "c%d" c
  | Neighborhood v -> Printf.sprintf "n%d" v

let parse_elt s =
  let num str = int_of_string_opt str in
  let tail () = String.sub s 1 (String.length s - 1) in
  if s = "" then None
  else if s.[0] = 'c' then Option.map (fun c -> Color c) (num (tail ()))
  else if s.[0] = 'n' then Option.map (fun v -> Neighborhood v) (num (tail ()))
  else
    match String.index_opt s '-' with
    | Some i when i > 0 ->
      let u = num (String.sub s 0 i) in
      let v = num (String.sub s (i + 1) (String.length s - i - 1)) in
      (match (u, v) with
      | Some u, Some v when u <> v ->
        let u, v = norm (u, v) in
        Some (Link (u, v))
      | _ -> None)
    | Some _ | None -> Option.map (fun v -> Node v) (num s)

let describe t indices =
  Printf.sprintf "{%s}"
    (String.concat "," (List.map (fun i -> elt_to_string (element t i)) indices))

(* The links a single element kills, as canonical (u < v) pairs. *)
let links_of_elt t = function
  | Node _ | Neighborhood _ -> []
  | Link (u, v) -> [ norm (u, v) ]
  | Color c ->
    Graph.fold_neighbours t.inst.Instance.graph c
      (fun acc w -> norm (c, w) :: acc)
      []

let decompose t mask =
  let order = Instance.order t.inst in
  let nodes = Bitset.create order in
  let links = ref [] in
  Bitset.iter
    (fun i ->
      match t.elts.(i) with
      | Node v -> Bitset.add nodes v
      | Neighborhood v ->
        Bitset.add nodes v;
        Graph.iter_neighbours t.inst.Instance.graph v (Bitset.add nodes)
      | (Link _ | Color _) as e -> links := links_of_elt t e @ !links)
    mask;
  (nodes, List.sort_uniq compare !links)

let degrade_links inst ~links =
  let g = inst.Instance.graph in
  let links = List.sort_uniq compare (List.map norm links) in
  List.iter
    (fun (u, v) ->
      if not (Graph.adjacent g u v) then
        invalid_arg "Fault_model.degrade_links: not an edge of the instance")
    links;
  let b = Graph.builder (Graph.order g) in
  List.iter
    (fun e -> if not (List.mem (norm e) links) then Graph.add_edge b (fst e) (snd e))
    (Graph.edges g);
  Instance.make ~graph:(Graph.freeze b)
    ~kind:(Array.init (Instance.order inst) (Instance.kind_of inst))
    ~n:inst.Instance.n ~k:inst.Instance.k
    ~name:(inst.Instance.name ^ " [degraded]")
    ~strategy:Instance.Generic

let link_key links =
  String.concat ";"
    (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) links)

let degraded_instance t links =
  match links with
  | [] -> t.inst
  | _ ->
    let key = link_key links in
    Mutex.lock t.lock;
    let cached = Hashtbl.find_opt t.degraded key in
    Mutex.unlock t.lock;
    (match cached with
    | Some inst -> inst
    | None ->
      let inst = degrade_links t.inst ~links in
      Mutex.lock t.lock;
      if
        Hashtbl.length t.degraded < degraded_limit
        && not (Hashtbl.mem t.degraded key)
      then Hashtbl.replace t.degraded key inst;
      Mutex.unlock t.lock;
      inst)

let effective t mask =
  if t.kind = Knode then (t.inst, mask)
  else begin
    let nodes, links = decompose t mask in
    (degraded_instance t links, nodes)
  end

let solve t ~faults =
  if t.kind = Knode then Reconfig.solve t.inst ~faults
  else begin
    let inst, nodes = effective t faults in
    Reconfig.solve inst ~faults:nodes
  end

let validate t ~faults nodes =
  let inst, nmask = effective t faults in
  Pipeline.validate inst ~faults:nmask nodes

let splice t ~current ~faults ~failed =
  if t.kind = Knode then
    Repair.patch t.inst ~current ~faults ~failed
  else begin
    let inst, nmask = effective t faults in
    match t.elts.(failed) with
    | Node v -> Repair.patch inst ~current ~faults:nmask ~failed:v
    | Link _ | Color _ | Neighborhood _ -> (
      (* No single-node patch rule applies; the parent pipeline survives
         exactly when it misses every newly dead link and node, which the
         validator decides in O(length).  Positives are revalidated by
         construction; anything else goes back to the full solver. *)
      match Pipeline.validate inst ~faults:nmask current.Pipeline.nodes with
      | Ok p -> Some (`Unchanged p)
      | Error _ -> None)
  end

let probe ~budget t mask =
  let inst, nmask = effective t mask in
  let expansions = ref 0 in
  let outcome =
    match Reconfig.solve_generic ~budget ~expansions inst ~faults:nmask with
    | Reconfig.Pipeline _ -> `Found
    | Reconfig.No_pipeline -> `None
    | Reconfig.Gave_up -> `Gave_up
  in
  (!expansions, outcome)

let induced_symmetry t group =
  let order = Instance.order t.inst in
  if Auto.degree group <> order then
    invalid_arg "Fault_model.induced_symmetry: group degree <> instance order";
  match t.kind with
  | Knode | Kcolored | Kneighbor ->
    (* Universe index = defining node id, and the action permutes defining
       nodes directly: the node group acts as itself. *)
    group
  | Kmixed ->
    let usize = Array.length t.elts in
    let extend p =
      Array.init usize (fun i ->
          match t.elts.(i) with
          | Node v -> p.(v)
          | Link (u, v) -> (
            let iu, iv = norm (p.(u), p.(v)) in
            match index_of t (Link (iu, iv)) with
            | Some j -> j
            | None -> raise Exit)
          | Color _ | Neighborhood _ -> assert false)
    in
    (try
       Auto.of_generators ~degree:usize (List.map extend (Auto.generators group))
     with Exit ->
       (* A generator failed to map an edge to an edge — it was not a graph
          automorphism; fall back to no symmetry rather than unsound orbits. *)
       Auto.trivial usize)
