(* Thin wrapper over the mixed node+link fault model.  This module used
   to carry its own degradation and solver loop; Fault_model now owns the
   universe encoding, the degraded-instance cache and the graceful solve,
   leaving only the Hayes endpoint-killing fallback (a *degraded* mode
   the generalized verifier deliberately does not offer) and the survey
   bookkeeping here. *)

module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset

type fault = Node of int | Link of int * int

type outcome =
  | Graceful of Pipeline.t
  | Degraded of Pipeline.t
  | No_pipeline
  | Gave_up

let to_mask model faults =
  let usize = Fault_model.size model in
  let mask = Bitset.create usize in
  List.iter
    (fun f ->
      let e =
        match f with
        | Node v -> Fault_model.Node v
        | Link (u, v) -> Fault_model.Link (u, v)
      in
      match Fault_model.index_of model e with
      | Some i -> Bitset.add mask i
      | None ->
        invalid_arg "Link_faults.solve: not a node or edge of the instance")
    faults;
  mask

(* Graceful first through the model; on a miss with link faults present,
   the Hayes reduction: kill one endpoint per faulty link, over all
   choices — the space is tiny (2^L).  A returned pipeline avoids the
   killed processors, so it also avoids every faulty link. *)
let solve_mask model mask =
  match Fault_model.solve model ~faults:mask with
  | Reconfig.Pipeline p -> Graceful p
  | Reconfig.Gave_up -> Gave_up
  | Reconfig.No_pipeline -> (
    let node_mask, links = Fault_model.decompose model mask in
    if links = [] then No_pipeline
    else begin
      let weakened, _ = Fault_model.effective model mask in
      let order = Instance.order weakened in
      let nodes = Bitset.elements node_mask in
      let rec choices = function
        | [] -> [ [] ]
        | (u, v) :: rest ->
          let tails = choices rest in
          List.map (fun t -> u :: t) tails @ List.map (fun t -> v :: t) tails
      in
      let outcomes =
        List.filter_map
          (fun killed ->
            match
              Reconfig.solve weakened
                ~faults:(Bitset.of_list order (nodes @ killed))
            with
            | Reconfig.Pipeline p -> Some p
            | Reconfig.No_pipeline | Reconfig.Gave_up -> None)
          (choices links)
      in
      match outcomes with
      | [] -> No_pipeline
      | ps ->
        (* Keep the largest pipeline found (fewest stranded processors). *)
        let best =
          List.fold_left
            (fun acc p ->
              if Pipeline.processor_count p > Pipeline.processor_count acc
              then p
              else acc)
            (List.hd ps) (List.tl ps)
        in
        Degraded best
    end)

let solve ?model inst ~faults =
  let model =
    match model with
    | Some m ->
      if not (Fault_model.instance m == inst) then
        invalid_arg "Link_faults.solve: model built over a different instance";
      m
    | None -> Fault_model.mixed inst
  in
  solve_mask model (to_mask model faults)

type survey = {
  fault_sets : int;
  graceful : int;
  degraded : int;
  lost : int;
  min_processors : int;
}

(* The survey drains the mixed model's plain task on the calling domain,
   as [Certify.write] does: its witness sink sees every set of size
   [0..k] once.  A pipeline the task found (solved or spliced, and
   revalidated either way) is graceful; any other set goes through the
   Hayes fallback. *)
let survey_exhaustive inst =
  let model = Fault_model.mixed inst in
  let usize = Fault_model.size model in
  let task = Verify.Task.exhaustive_model model in
  let total = ref 0 in
  let graceful = ref 0 in
  let degraded = ref 0 in
  let lost = ref 0 in
  let min_procs = ref max_int in
  let witness { Verify.w_set; w_outcome; _ } =
    incr total;
    let outcome =
      match w_outcome with
      | Reconfig.Pipeline p -> Graceful p
      | Reconfig.No_pipeline | Reconfig.Gave_up ->
        solve_mask model (Bitset.of_list usize (Array.to_list w_set))
    in
    match outcome with
    | Graceful p ->
      incr graceful;
      min_procs := min !min_procs (Pipeline.processor_count p)
    | Degraded p ->
      incr degraded;
      min_procs := min !min_procs (Pipeline.processor_count p)
    | No_pipeline | Gave_up -> incr lost
  in
  let process = Verify.Task.processor task in
  for u = 0 to Verify.Task.nunits task - 1 do
    process ~witness ~record:(fun ~rank:_ _ -> ()) ~cutoff:(fun () -> max_int) u
  done;
  {
    fault_sets = !total;
    graceful = !graceful;
    degraded = !degraded;
    lost = !lost;
    min_processors = (if !min_procs = max_int then 0 else !min_procs);
  }

let pp_survey ppf s =
  Format.fprintf ppf
    "%d mixed fault sets: %d graceful (%.1f%%), %d degraded, %d lost; \
     smallest pipeline %d processors"
    s.fault_sets s.graceful
    (100.0 *. float_of_int s.graceful /. float_of_int (max 1 s.fault_sets))
    s.degraded s.lost s.min_processors
