module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset

type result =
  | Unchanged of Pipeline.t
  | Spliced of Pipeline.t
  | Resolved of Pipeline.t
  | Lost

let is_local = function
  | Unchanged _ | Spliced _ -> true
  | Resolved _ | Lost -> false

(* A healthy terminal of the given kind attached to processor [p]. *)
let fresh_terminal inst ~faults kind p =
  Graph.fold_neighbours inst.Instance.graph p
    (fun acc v ->
      match acc with
      | Some _ -> acc
      | None ->
        if
          (not (Bitset.mem faults v))
          && Label.equal (Instance.kind_of inst v) kind
        then Some v
        else None)
    None

let rec last = function
  | [ x ] -> x
  | _ :: rest -> last rest
  | [] -> invalid_arg "Repair.last"

(* Split a non-empty list into (all-but-last, last) in one traversal. *)
let rec split_last = function
  | [ x ] -> ([], x)
  | x :: rest ->
    let init, l = split_last rest in
    (x :: init, l)
  | [] -> invalid_arg "Repair.split_last"

(* Local patch attempts on the normalised pipeline
   [t_in :: procs @ [t_out]].  Returns the patched node list.

   Beyond the plain splice (flanks adjacent), two 2-opt reconnections keep
   repairs local when a segment reversal restores adjacency:

     A @ [x] @ B  with x failed, u = last A, w = head B, z = last B,
                  a0 = head A:
     - plain:      u ~ w            ->  A @ B
     - tail flip:  u ~ z, w has a healthy output terminal
                                    ->  A @ rev B, new output terminal at w
     - head flip:  a0 ~ w, u has a healthy input terminal
                                    ->  rev A @ B, new input terminal at u *)
let try_splice inst ~faults ~failed nodes =
  let g = inst.Instance.graph in
  match nodes with
  | t_in :: rest when rest <> [] -> (
    let procs, t_out = split_last rest in
    if procs = [] then None
    else if failed = t_in then
      (* Input terminal died: swap in another healthy input terminal on the
         first processor. *)
      match fresh_terminal inst ~faults Label.Input (List.hd procs) with
      | Some t -> Some (t :: rest)
      | None -> None
    else if failed = t_out then
      match fresh_terminal inst ~faults Label.Output (last procs) with
      | Some t -> Some (t_in :: procs @ [ t ])
      | None -> None
    else if not (List.mem failed procs) then None
    else begin
      let before, after =
        let rec split acc = function
          | x :: rest when x = failed -> (List.rev acc, rest)
          | x :: rest -> split (x :: acc) rest
          | [] -> (List.rev acc, [])
        in
        split [] procs
      in
      match (before, after) with
      | [], [] -> None (* only processor died: nothing local to do *)
      | [], w :: _ -> (
        (* First processor died: the successor needs an input terminal. *)
        match fresh_terminal inst ~faults Label.Input w with
        | Some t -> Some (t :: after @ [ t_out ])
        | None -> None)
      | _, [] -> (
        (* Last processor died: the predecessor needs an output terminal. *)
        let u = last before in
        match fresh_terminal inst ~faults Label.Output u with
        | Some t -> Some (t_in :: before @ [ t ])
        | None -> None)
      | _ :: _, w :: _ -> (
        let u = last before in
        let z = last after in
        let a0 = List.hd before in
        if Graph.adjacent g u w then
          (* Plain splice. *)
          Some ((t_in :: before) @ after @ [ t_out ])
        else if Graph.adjacent g u z then
          (* Tail flip: reverse the suffix; [w] becomes the output end. *)
          match fresh_terminal inst ~faults Label.Output w with
          | Some t -> Some ((t_in :: before) @ List.rev after @ [ t ])
          | None -> None
        else if Graph.adjacent g a0 w then
          (* Head flip: reverse the prefix; [u] becomes the input end. *)
          match fresh_terminal inst ~faults Label.Input u with
          | Some t -> Some ((t :: List.rev before) @ after @ [ t_out ])
          | None -> None
        else None)
    end)
  | _ -> None

(* The local-only part of [repair]: [Some] on the no-search outcomes
   (fault off the pipeline, or a successful splice), [None] when a full
   reconfiguration would be needed.  The engine's plan cache uses this to
   derive a plan from a cached one-fault-smaller predecessor without
   running the solver. *)
let patch inst ~current ~faults ~failed =
  let current = Pipeline.normalise inst current in
  let nodes = current.Pipeline.nodes in
  if List.mem failed nodes |> not then begin
    (* The fault missed the pipeline (an unused terminal); the embedding
       survives as-is — but revalidate rather than trust the caller. *)
    if Pipeline.is_valid inst ~faults nodes then Some (`Unchanged current)
    else None
  end
  else
    match try_splice inst ~faults ~failed nodes with
    | Some patched when Pipeline.is_valid inst ~faults patched ->
      Some (`Spliced { Pipeline.nodes = patched })
    | Some _ | None -> None

let repair ?budget inst ~current ~faults ~failed =
  let full () =
    match Reconfig.solve ?budget inst ~faults with
    | Reconfig.Pipeline p -> Resolved p
    | Reconfig.No_pipeline | Reconfig.Gave_up -> Lost
  in
  match patch inst ~current ~faults ~failed with
  | Some (`Unchanged p) -> Unchanged p
  | Some (`Spliced p) -> Spliced p
  | None -> full ()
