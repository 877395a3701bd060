type t = { nbr : int array array; rows : Bitset.t array; size : int }

type builder = { order : int; mutable adj : (int * int) list; mutable count : int }

let builder order =
  if order < 0 then invalid_arg "Graph.builder: negative order";
  { order; adj = []; count = 0 }

let norm u v = if u < v then (u, v) else (v, u)

let has_edge_builder b u v = List.mem (norm u v) b.adj

let add_edge b u v =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if u < 0 || v < 0 || u >= b.order || v >= b.order then
    invalid_arg "Graph.add_edge: node out of range";
  if has_edge_builder b u v then invalid_arg "Graph.add_edge: duplicate edge";
  b.adj <- norm u v :: b.adj;
  b.count <- b.count + 1

let add_edge_if_absent b u v =
  if not (u = v || has_edge_builder b u v) then add_edge b u v

let freeze b =
  let deg = Array.make b.order 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    b.adj;
  let nbr = Array.map (fun d -> Array.make d 0) deg in
  let fill = Array.make b.order 0 in
  List.iter
    (fun (u, v) ->
      nbr.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      nbr.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    b.adj;
  Array.iter (fun row -> Array.sort compare row) nbr;
  (* Adjacency bitset rows: row v is the neighbour set of v over the node
     universe, precomputed once so solver inner loops can intersect whole
     rows against alive/remaining masks word-parallel. *)
  let rows =
    Array.map
      (fun row ->
        let s = Bitset.create b.order in
        Array.iter (Bitset.add s) row;
        s)
      nbr
  in
  { nbr; rows; size = b.count }

let order g = Array.length g.nbr
let size g = g.size
let degree g v = Array.length g.nbr.(v)
let max_degree g = Array.fold_left (fun m row -> max m (Array.length row)) 0 g.nbr
let neighbours g v = g.nbr.(v)

let adjacent g u v =
  let row = g.nbr.(u) in
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if row.(mid) = v then true
      else if row.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length row)

let iter_neighbours g v f = Array.iter f g.nbr.(v)
let fold_neighbours g v f init = Array.fold_left f init g.nbr.(v)
let neighbours_mask g v = g.rows.(v)

let edges g =
  let acc = ref [] in
  for u = order g - 1 downto 0 do
    let row = g.nbr.(u) in
    for j = Array.length row - 1 downto 0 do
      if row.(j) > u then acc := (u, row.(j)) :: !acc
    done
  done;
  !acc

let of_edges n es =
  let b = builder n in
  List.iter (fun (u, v) -> add_edge b u v) es;
  freeze b

let induced_mask g alive =
  let n = order g in
  let to_sub = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if Bitset.mem alive v then begin
      to_sub.(v) <- !count;
      incr count
    end
  done;
  let to_orig = Array.make !count 0 in
  for v = 0 to n - 1 do
    if to_sub.(v) >= 0 then to_orig.(to_sub.(v)) <- v
  done;
  let b = builder !count in
  List.iter
    (fun (u, v) ->
      if to_sub.(u) >= 0 && to_sub.(v) >= 0 then add_edge b to_sub.(u) to_sub.(v))
    (edges g);
  (freeze b, to_sub, to_orig)

let is_clique_on g nodes =
  let rec pairs = function
    | [] -> true
    | u :: rest -> List.for_all (fun v -> adjacent g u v) rest && pairs rest
  in
  pairs nodes

let equal a b = order a = order b && edges a = edges b

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for v = 0 to order g - 1 do
    let d = degree g v in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  List.sort compare (Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [])

let pp ppf g =
  Format.fprintf ppf "graph(order=%d, size=%d)" (order g) (size g)
