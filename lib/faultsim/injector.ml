open Gdpn_core

type event = { round : int; node : int }
type schedule = event list

(* Stable sort under a total (round, node) key: [List.sort] does not
   guarantee stability, so ordering same-round events by round alone left
   their relative order unspecified — schedules built from the same seed
   could replay in different orders.  Schedules never repeat a node, so
   the key is total and the result order is unique. *)
let sort_schedule s =
  List.stable_sort (fun a b -> compare (a.round, a.node) (b.round, b.node)) s

let distinct_sample rng pool count =
  let arr = Array.of_list pool in
  let len = Array.length arr in
  if count > len then invalid_arg "Injector: not enough nodes to fail";
  (* Partial Fisher-Yates. *)
  for i = 0 to count - 1 do
    let j = i + Stream.Prng.int rng (len - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 count)

let random_model ~rng model ~count ~rounds =
  let usize = Fault_model.size model in
  let elts = distinct_sample rng (List.init usize Fun.id) count in
  sort_schedule
    (List.map (fun node -> { round = Stream.Prng.int rng rounds; node }) elts)

let random ~rng inst ~count ~rounds =
  random_model ~rng (Fault_model.node inst) ~count ~rounds

let random_processors_only ~rng inst ~count ~rounds =
  let nodes = distinct_sample rng (Instance.processors inst) count in
  sort_schedule
    (List.map (fun node -> { round = Stream.Prng.int rng rounds; node }) nodes)

let burst inst ~count ~at =
  let procs = Instance.processors inst in
  if count > List.length procs then invalid_arg "Injector.burst: too many";
  List.filteri (fun i _ -> i < count) procs
  |> List.map (fun node -> { round = at; node })

let adversarial_terminals inst ~count ~at =
  let terminals = Instance.inputs inst @ Instance.outputs inst in
  if count > List.length terminals then
    invalid_arg "Injector.adversarial_terminals: too many";
  List.filteri (fun i _ -> i < count) terminals
  |> List.map (fun node -> { round = at; node })

let geometric ~rng inst ~rate ~rounds ~max_count =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Injector.geometric: rate must be in [0, 1]";
  let order = Instance.order inst in
  let failed = Array.make order false in
  let events = ref [] in
  let count = ref 0 in
  for round = 0 to rounds - 1 do
    if !count < max_count && Stream.Prng.float rng 1.0 < rate then begin
      (* Uniform among the not-yet-failed nodes. *)
      let alive = ref [] in
      for v = order - 1 downto 0 do
        if not failed.(v) then alive := v :: !alive
      done;
      match !alive with
      | [] -> ()
      | alive_nodes ->
        let node =
          List.nth alive_nodes (Stream.Prng.int rng (List.length alive_nodes))
        in
        failed.(node) <- true;
        incr count;
        events := { round; node } :: !events
    end
  done;
  sort_schedule !events

let clustered ~rng inst ~count ~at ~spread =
  let procs = Array.of_list (Instance.processors inst) in
  let total = Array.length procs in
  if count > total then invalid_arg "Injector.clustered: too many";
  let centre = Stream.Prng.int rng total in
  (* Nodes by distance from the centre index, bounded by [spread] where
     possible. *)
  let by_distance =
    List.sort
      (fun a b -> compare (abs (a - centre)) (abs (b - centre)))
      (List.init total Fun.id)
  in
  let within, beyond =
    List.partition (fun i -> abs (i - centre) <= spread) by_distance
  in
  let chosen = List.filteri (fun i _ -> i < count) (within @ beyond) in
  sort_schedule (List.map (fun i -> { round = at; node = procs.(i) }) chosen)

let apply_due schedule ~round machine =
  List.fold_left
    (fun acc ev ->
      if ev.round = round then begin
        ignore (Machine.inject machine ev.node);
        acc + 1
      end
      else acc)
    0 schedule
