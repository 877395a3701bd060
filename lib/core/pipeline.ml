module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset

type t = { nodes : int list }

let rec last = function
  | [ x ] -> x
  | _ :: rest -> last rest
  | [] -> invalid_arg "Pipeline.last: empty"

let validate inst ~faults nodes =
  let graph = inst.Instance.graph in
  let order = Graph.order graph in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  match nodes with
  | [] | [ _ ] -> err "pipeline needs at least two nodes"
  | first :: _ -> (
    let final = last nodes in
    let kind v = Instance.kind_of inst v in
    let endpoint_kinds_ok () =
      match (kind first, kind final) with
      | Label.Input, Label.Output | Label.Output, Label.Input -> true
      | _ -> false
    in
    if List.exists (fun v -> v < 0 || v >= order) nodes then
      err "node id out of range"
    else if not (endpoint_kinds_ok ()) then
      err "endpoints must be one input terminal and one output terminal"
    else if List.exists (Bitset.mem faults) nodes then err "uses a faulty node"
    else begin
      let seen = Bitset.create order in
      let distinct =
        List.for_all
          (fun v ->
            let fresh = not (Bitset.mem seen v) in
            Bitset.add seen v;
            fresh)
          nodes
      in
      if not distinct then err "repeats a node"
      else begin
        let rec adjacency_ok = function
          | a :: (b :: _ as rest) ->
            Bitset.mem (Graph.neighbours_mask graph a) b && adjacency_ok rest
          | [ _ ] | [] -> true
        in
        if not (adjacency_ok nodes) then err "consecutive nodes not adjacent"
        else begin
          (* Internal nodes must be exactly the healthy processors. *)
          let rec drop_last = function
            | [] | [ _ ] -> []
            | x :: rest -> x :: drop_last rest
          in
          let internal = match nodes with _ :: rest -> drop_last rest | [] -> [] in
          if List.exists (fun v -> Label.is_terminal (kind v)) internal then
            err "a terminal appears as an internal node"
          else begin
            let healthy_procs = Instance.processor_set inst in
            Bitset.diff_into healthy_procs faults;
            let covered = Bitset.create order in
            List.iter (fun v -> Bitset.add covered v) internal;
            if not (Bitset.equal covered healthy_procs) then
              err "internal nodes are not exactly the healthy processors"
            else Ok { nodes }
          end
        end
      end
    end)

let is_valid inst ~faults nodes = Result.is_ok (validate inst ~faults nodes)

let processor_count t = max 0 (List.length t.nodes - 2)

let input_end inst t =
  match t.nodes with
  | first :: _ when Label.equal (Instance.kind_of inst first) Label.Input -> first
  | _ :: _ -> last t.nodes
  | [] -> invalid_arg "Pipeline.input_end: empty"

let output_end inst t =
  match t.nodes with
  | first :: _ when Label.equal (Instance.kind_of inst first) Label.Output ->
    first
  | _ :: _ -> last t.nodes
  | [] -> invalid_arg "Pipeline.output_end: empty"

let normalise inst t =
  match t.nodes with
  | first :: _ when Label.equal (Instance.kind_of inst first) Label.Input -> t
  | _ -> { nodes = List.rev t.nodes }

let pp ppf t =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " - ")
       Format.pp_print_int)
    t.nodes
