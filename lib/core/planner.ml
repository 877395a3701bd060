type estimate = {
  trials : int;
  survived : int;
  probability : float;
  wilson_low : float;
}

let wilson_lower_bound ~successes ~trials =
  if trials = 0 then 0.0
  else begin
    let z = 1.96 in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let centre = p +. (z2 /. (2.0 *. n)) in
    let margin = z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n))) in
    Float.max 0.0 ((centre -. margin) /. denom)
  end

let survival_probability ~rng ~trials ~node_failure_prob inst =
  if node_failure_prob < 0.0 || node_failure_prob > 1.0 then
    invalid_arg "Planner.survival_probability: probability out of range";
  let order = Instance.order inst in
  let survived = ref 0 in
  let faults = Gdpn_graph.Bitset.create order in
  for _ = 1 to trials do
    Gdpn_graph.Bitset.clear faults;
    for v = 0 to order - 1 do
      if Random.State.float rng 1.0 < node_failure_prob then
        Gdpn_graph.Bitset.add faults v
    done;
    match Reconfig.solve inst ~faults with
    | Reconfig.Pipeline _ -> incr survived
    | Reconfig.No_pipeline | Reconfig.Gave_up -> ()
  done;
  {
    trials;
    survived = !survived;
    probability = float_of_int !survived /. float_of_int (max 1 trials);
    wilson_low = wilson_lower_bound ~successes:!survived ~trials;
  }

let guarantee_only_bound ~n ~k ~node_failure_prob =
  (* Standard node count: (k+1) inputs + (k+1) outputs + (n+k) processors. *)
  let nodes = (2 * (k + 1)) + n + k in
  let p = node_failure_prob in
  (* P(Binomial(nodes, p) <= k), computed iteratively to avoid factorials. *)
  let term = ref ((1.0 -. p) ** float_of_int nodes) in
  let acc = ref !term in
  for j = 1 to k do
    term :=
      !term
      *. float_of_int (nodes - j + 1)
      /. float_of_int j *. (p /. (1.0 -. p));
    acc := !acc +. !term
  done;
  Float.min 1.0 !acc

let recommend_k ~rng ?(trials = 400) ~n ~node_failure_prob ~target () =
  let best_possible = wilson_lower_bound ~successes:trials ~trials in
  if target > best_possible then
    invalid_arg
      (Printf.sprintf
         "Planner.recommend_k: %d trials can certify at most %.4f; raise \
          trials or lower the target"
         trials best_possible);
  let rec search k =
    if k > 8 then None
    else
      match Family.build ~n ~k with
      | exception Family.Unsupported _ -> search (k + 1)
      | inst ->
        let est = survival_probability ~rng ~trials ~node_failure_prob inst in
        if est.wilson_low >= target then Some (k, est) else search (k + 1)
  in
  search 1

let pp_estimate ppf e =
  Format.fprintf ppf "%d/%d survived (p = %.4f, 95%% lower bound %.4f)"
    e.survived e.trials e.probability e.wilson_low
