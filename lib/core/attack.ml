module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat

type finding = {
  faults : int list;
  expansions : int;
  outcome : [ `Found | `None | `Gave_up ];
  restarts : int;
  evaluations : int;
}

let worst_case ~rng ?(restarts = 5) ?(budget = 500_000) ?model inst =
  (* Best-response search over the model's universe: candidate sets are
     drawn from (and swapped within) all of it, so the climb can trade a
     node for a link or a colour class whenever that costs the solver
     more.  The node model's universe is the node set. *)
  let model =
    match model with
    | Some m when not (Fault_model.instance m == inst) ->
      invalid_arg "Attack.worst_case: model built over a different instance"
    | Some m -> m
    | None -> Fault_model.node inst
  in
  let order = Fault_model.size model in
  let k = inst.Instance.k in
  let evaluations = ref 0 in
  let eval faults =
    incr evaluations;
    Fault_model.probe ~budget model (Bitset.of_list order faults)
  in
  let best = ref { faults = []; expansions = 0; outcome = `Found;
                   restarts; evaluations = 0 } in
  (* Scout: a handful of random sets; the worst seeds the first climb, so
     the search result always dominates plain random sampling of the same
     size. *)
  let scout =
    List.init (8 * restarts) (fun _ -> Array.to_list (Combinat.sample rng order k))
  in
  let seed_set =
    List.fold_left
      (fun (bs, bf) f ->
        let s, _ = eval f in
        if s > bs then (s, f) else (bs, bf))
      (-1, List.hd scout) scout
    |> snd
  in
  let first = ref true in
  for _ = 1 to restarts do
    let current =
      ref
        (if !first then begin
           first := false;
           seed_set
         end
         else Array.to_list (Combinat.sample rng order k))
    in
    let current_score = ref (fst (eval !current)) in
    let improved = ref true in
    while !improved do
      improved := false;
      (* Steepest ascent over single-element swaps. *)
      let candidates =
        List.concat_map
          (fun out ->
            List.filter_map
              (fun v ->
                if List.mem v !current then None
                else Some (v :: List.filter (fun x -> x <> out) !current))
              (List.init order Fun.id))
          !current
      in
      List.iter
        (fun cand ->
          let score, _ = eval cand in
          if score > !current_score then begin
            current := cand;
            current_score := score;
            improved := true
          end)
        candidates
    done;
    if !current_score > !best.expansions then begin
      let _, outcome = eval !current in
      best :=
        {
          faults = List.sort compare !current;
          expansions = !current_score;
          outcome;
          restarts;
          evaluations = 0;
        }
    end
  done;
  { !best with evaluations = !evaluations }

let random_baseline ~rng ~trials ?(budget = 500_000) inst =
  let order = Instance.order inst in
  let k = inst.Instance.k in
  let model = Fault_model.node inst in
  let total = ref 0 in
  let worst = ref 0 in
  for _ = 1 to trials do
    let faults = Array.to_list (Combinat.sample rng order k) in
    let score, _ =
      Fault_model.probe ~budget model (Bitset.of_list order faults)
    in
    total := !total + score;
    worst := max !worst score
  done;
  (!total / max 1 trials, !worst)
