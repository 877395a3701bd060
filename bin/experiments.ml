(* The experiment runner: executes the full E1-E17 reproduction matrix and
   emits a markdown report (paper claim vs machine-measured result, with a
   pass/fail verdict per experiment).

   Usage:
     dune exec bin/experiments.exe            # standard depth (seconds)
     dune exec bin/experiments.exe -- --full  # deepest settings (~10 s)

   Progress goes to stderr; the report to stdout. *)

open Gdpn_core
module B = Gdpn_baselines

let full = Array.exists (fun a -> a = "--full") Sys.argv

let progress fmt =
  Format.kfprintf
    (fun ppf -> Format.fprintf ppf "@.")
    Format.err_formatter fmt

type verdict = { measured : string; pass : bool }

let ok fmt = Format.kasprintf (fun measured -> { measured; pass = true }) fmt
let bad fmt = Format.kasprintf (fun measured -> { measured; pass = false }) fmt

let check_gd name inst =
  let r = Verify.exhaustive inst in
  if Verify.is_k_gd r then
    Printf.sprintf "%s: %d fault sets, all tolerated" name
      r.Verify.fault_sets_checked
  else
    Printf.sprintf "%s: FAILED (%s)" name
      (Format.asprintf "%a" Verify.pp_report r)

let all_gd instances =
  let texts = List.map (fun (name, inst) -> check_gd name inst) instances in
  let pass =
    List.for_all
      (fun (_, inst) -> Verify.is_k_gd (Verify.exhaustive inst))
      instances
  in
  { measured = String.concat "; " texts; pass }

(* ------------------------------------------------------------------ *)

let e1 () =
  let ks = if full then [ 1; 2; 3; 4; 5 ] else [ 1; 2; 3; 4 ] in
  all_gd (List.map (fun k -> (Printf.sprintf "G(3,%d)" k, Small_n.g3 ~k)) ks)

let e2 () =
  let ks = if full then [ 1; 2; 3; 4; 5; 6 ] else [ 1; 2; 3; 4 ] in
  let gd =
    all_gd (List.map (fun k -> (Printf.sprintf "G(1,%d)" k, Small_n.g1 ~k)) ks)
  in
  let uniq =
    List.for_all (fun k -> Impossibility.g1_clique_edge_necessity ~k) [ 1; 2 ]
  in
  {
    measured =
      gd.measured
      ^ Printf.sprintf "; clique-edge necessity holds for k=1..2: %b" uniq;
    pass = gd.pass && uniq;
  }

let e3 () =
  let ks = if full then [ 1; 2; 3; 4; 5 ] else [ 1; 2; 3; 4 ] in
  let gd =
    all_gd (List.map (fun k -> (Printf.sprintf "G(2,%d)" k, Small_n.g2 ~k)) ks)
  in
  let io = List.for_all (fun k -> Impossibility.g2_io_overlap_impossible ~k) [ 1; 2; 3 ] in
  {
    measured = gd.measured ^ Printf.sprintf "; I=O variant impossible k=1..3: %b" io;
    pass = gd.pass && io;
  }

let e4 () =
  all_gd
    [
      ("ext³G(1,1)", Extend.iterate (Small_n.g1 ~k:1) 3);
      ("ext²G(2,2)", Extend.iterate (Small_n.g2 ~k:2) 2);
      ("ext²G(3,2)", Extend.iterate (Small_n.g3 ~k:2) 2);
      ("ext¹G(6,2)", Extend.iterate (Special.g62 ()) 1);
    ]

let degree_theorem k n_max =
  let rows = List.init n_max (fun i -> i + 1) in
  let mismatches =
    List.filter
      (fun n ->
        let inst = Family.build ~n ~k in
        Instance.max_processor_degree inst
        <> Bounds.degree_lower_bound ~n ~k)
      rows
  in
  let gd_bad =
    List.filter
      (fun n -> not (Verify.is_k_gd (Verify.exhaustive (Family.build ~n ~k))))
      rows
  in
  if mismatches = [] && gd_bad = [] then
    ok "n=1..%d: every degree matches the proven bound, every instance exhaustively k-GD"
      n_max
  else
    bad "degree mismatches at n=%s; k-GD failures at n=%s"
      (String.concat "," (List.map string_of_int mismatches))
      (String.concat "," (List.map string_of_int gd_bad))

let e5 () = degree_theorem 1 (if full then 16 else 12)
let e6 () = degree_theorem 2 (if full then 14 else 10)
let e7 () = degree_theorem 3 (if full then 12 else 9)

let e8 () =
  let r = Impossibility.lemma_3_14 () in
  let pos = Impossibility.standard_census ~n:4 ~k:2 in
  if
    r.Impossibility.solutions_found = 0
    && r.Impossibility.graphs_examined = 810
    && pos.Impossibility.solutions_found > 0
  then
    ok
      "(5,2): 810 graphs × 20 assignments, 0 solutions; positive control \
       (4,2): %d of %d candidates are 2-GD"
      pos.Impossibility.solutions_found pos.Impossibility.assignments_examined
  else bad "census mismatch"

let e9 () =
  let g224 = Circulant_family.build ~n:22 ~k:4 in
  let exhaustive_ok = Verify.is_k_gd (Verify.exhaustive g224) in
  let sampled_ok =
    List.for_all
      (fun (n, k, trials) ->
        Verify.is_k_gd
          (Verify.sampled
             ~rng:(Random.State.make [| n + k |])
             ~trials
             (Circulant_family.build ~n ~k)))
      (if full then [ (26, 5, 20000); (40, 4, 5000); (100, 8, 500) ]
       else [ (26, 5, 3000); (40, 4, 1000); (100, 8, 200) ])
  in
  let degrees_ok =
    List.for_all
      (fun (n, k) -> Bounds.is_degree_optimal (Circulant_family.build ~n ~k))
      [ (22, 4); (26, 5); (27, 5); (50, 6); (60, 7); (100, 8) ]
  in
  if exhaustive_ok && sampled_ok && degrees_ok then
    ok
      "G(22,4) exhaustive (66,712 fault sets); G(26,5)/G(40,4)/G(100,8) \
       sampled clean; degree-optimal at every probed (n,k)"
  else
    bad "exhaustive=%b sampled=%b degrees=%b" exhaustive_ok sampled_ok
      degrees_ok

let e10 () =
  let instances =
    [
      Small_n.g1 ~k:3; Small_n.g2 ~k:3; Small_n.g3 ~k:3; Special.g62 ();
      Special.g43 (); Circulant_family.build ~n:22 ~k:4;
    ]
  in
  let l31 = List.for_all Bounds.lemma_3_1_holds instances in
  let l34 = List.for_all Bounds.lemma_3_4_holds instances in
  let parity = ref true in
  for n = 1 to 10 do
    for k = 1 to 6 do
      if
        Bounds.parity_bound_applies ~n ~k
        <> Bounds.lemma_3_5_counting_argument ~n ~k
      then parity := false
    done
  done;
  if l31 && l34 && !parity then
    ok "L3.1, L3.4 hold on every construction; L3.5 counting matches parity on n<=10, k<=6"
  else bad "L3.1=%b L3.4=%b parity=%b" l31 l34 !parity

let e11 () =
  let cases = [ (1, 2); (4, 2); (6, 2); (7, 3) ] in
  let results =
    List.map
      (fun (n, k) ->
        let m = Merge.apply (Family.build ~n ~k) in
        let deg_ok =
          Gdpn_graph.Graph.degree m.Instance.graph (Merge.input_node m) = k + 1
        in
        let gd_ok =
          Verify.is_k_gd
            (Verify.exhaustive ~universe:(Instance.processors m) m)
        in
        deg_ok && gd_ok)
      cases
  in
  if List.for_all Fun.id results then
    ok "merged G(1,2), G(4,2), G(6,2), G(7,3): input degree k+1, all processor fault sets tolerated"
  else bad "merged-model failure"

(* The comparison table, then the degradation curve: mean utilization
   over 2,000 random fault sets of each size f <= k (0 when the stream is
   down).  gdpn stays at 1; every baseline ends below it. *)
let e12 () =
  let schemes =
    [
      B.Compare.gdpn_scheme ~n:8 ~k:2; B.Hayes.scheme ~n:8 ~k:2;
      B.Spares.scheme ~n:8 ~k:2; B.Rosenberg.scheme ~n:8 ~k:2;
    ]
  in
  let curve =
    List.map
      (fun s ->
        List.init 3 (fun f ->
            B.Compare.utilization_vs_faults s ~f ~trials:2000 ~seed:(f + 1)))
      schemes
  in
  let curve_ok =
    match curve with
    | gdpn :: baselines ->
      List.for_all (fun u -> u = 1.0) gdpn
      && List.for_all (fun u -> List.nth u 2 < 1.0) baselines
    | [] -> false
  in
  let curve_text =
    String.concat ", "
      (List.map2
         (fun s u ->
           Printf.sprintf "%s %s" s.B.Scheme.name
             (String.concat "/" (List.map (Printf.sprintf "%.4f") u)))
         schemes curve)
  in
  match B.Compare.table ~n:8 ~k:2 () with
  | [ gdpn; hayes; spares; diogenes ] ->
    let shape =
      gdpn.B.Compare.coverage = 1.0
      && gdpn.B.Compare.mean_utilization = 1.0
      && hayes.B.Compare.coverage < 0.9
      && spares.B.Compare.mean_utilization < 1.0
      && diogenes.B.Compare.coverage < hayes.B.Compare.coverage
    in
    (if shape && curve_ok then ok else bad)
      "coverage/mean-utilization: gdpn %.2f/%.2f, hayes %.2f/%.2f, spares \
       %.2f/%.2f, diogenes %.2f/%.2f — the §2 shape; utilization at f = \
       0/1/2: %s"
      gdpn.B.Compare.coverage gdpn.B.Compare.mean_utilization
      hayes.B.Compare.coverage hayes.B.Compare.mean_utilization
      spares.B.Compare.coverage spares.B.Compare.mean_utilization
      diogenes.B.Compare.coverage diogenes.B.Compare.mean_utilization
      curve_text
  | _ -> bad "expected four rows"

let e13 () =
  let surveys =
    List.map
      (fun (name, inst) -> (name, Link_faults.survey_exhaustive inst))
      [
        ("G(1,2)", Small_n.g1 ~k:2); ("G(2,2)", Small_n.g2 ~k:2);
        ("G(3,2)", Small_n.g3 ~k:2); ("G(6,2)", Special.g62 ());
      ]
  in
  let none_lost =
    List.for_all (fun (_, s) -> s.Link_faults.lost = 0) surveys
  in
  let length_ok =
    List.for_all
      (fun (name, s) ->
        let n =
          match name with
          | "G(1,2)" -> 1
          | "G(2,2)" -> 2
          | "G(3,2)" -> 3
          | _ -> 6
        in
        s.Link_faults.min_processors >= n)
      surveys
  in
  let some_degraded =
    List.exists (fun (_, s) -> s.Link_faults.degraded > 0) surveys
  in
  if none_lost && length_ok && some_degraded then
    ok "%s — graceful degradation under link faults is not universal, but the length-n guarantee never breaks"
      (String.concat "; "
         (List.map
            (fun (name, s) ->
              Printf.sprintf "%s %d/%d graceful" name s.Link_faults.graceful
                s.Link_faults.fault_sets)
            surveys))
  else bad "link-fault survey shape broke"

let e14 () =
  let inst = Family.build ~n:13 ~k:3 in
  let order = Instance.order inst in
  let pipeline =
    match Reconfig.solve_list inst ~faults:[] with
    | Reconfig.Pipeline p -> Pipeline.normalise inst p
    | _ -> failwith "setup"
  in
  let singles =
    Instance.processors inst @ Instance.inputs inst @ Instance.outputs inst
  in
  let local =
    List.length
      (List.filter
         (fun v ->
           let faults = Gdpn_graph.Bitset.of_list order [ v ] in
           Repair.patch inst ~current:pipeline ~faults ~failed:v <> None)
         singles)
  in
  let rate = float_of_int local /. float_of_int (List.length singles) in
  if rate > 0.3 then
    ok "single-fault local-repair rate on G(13,3): %.0f%% (%d of %d); DES spike ratio ~50x (see realtime_latency example)"
      (100.0 *. rate) local (List.length singles)
  else bad "local repair rate unexpectedly low: %.2f" rate

let e15 () =
  let rng () = Random.State.make [| 2026 |] in
  let trials = if full then 300 else 120 in
  let gdpn =
    B.Survival.instance_lifetime ~rng:(rng ()) ~trials
      (Family.build ~n:8 ~k:2)
  in
  let baselines =
    List.map
      (fun s -> (s.B.Scheme.name, B.Survival.scheme_lifetime ~rng:(rng ()) ~trials s))
      [ B.Hayes.scheme ~n:8 ~k:2; B.Spares.scheme ~n:8 ~k:2;
        B.Rosenberg.scheme ~n:8 ~k:2 ]
  in
  let dominated =
    List.for_all (fun (_, s) -> gdpn.B.Survival.mean > s.B.Survival.mean) baselines
  in
  if gdpn.B.Survival.min_faults >= 2 && dominated then
    ok "gdpn mean lifetime %.2f (min %d >= k); %s"
      gdpn.B.Survival.mean gdpn.B.Survival.min_faults
      (String.concat ", "
         (List.map
            (fun (name, s) -> Printf.sprintf "%s %.2f" name s.B.Survival.mean)
            baselines))
  else bad "survival shape broke"

(* Random size-k fault sets against hill-climbed ones on G(40,4), each
   scored by the generic backtracker's node expansions with every probe
   capped: random sets stay an order of magnitude under the cap on
   average, the climb saturates it, and the constructive solver still
   tolerates the set it found. *)
let e16 () =
  let inst = Circulant_family.build ~n:40 ~k:4 in
  let budget = 30_000 in
  let rng = Random.State.make [| 2027 |] in
  let mean, worst = Attack.random_baseline ~rng ~trials:60 ~budget inst in
  let adv = Attack.worst_case ~rng ~restarts:1 ~budget inst in
  let tolerated =
    match Reconfig.solve_list inst ~faults:adv.Attack.faults with
    | Reconfig.Pipeline _ -> true
    | _ -> false
  in
  (if adv.Attack.expansions >= budget && 10 * mean <= budget && tolerated
   then ok
   else bad)
    "G(40,4), generic-solver expansions capped at %d: random mean %d, \
     random worst %d, hill-climbed %d (set {%s}, %d probes); the \
     constructive solver tolerates the hill-climbed set: %b"
    budget mean worst adv.Attack.expansions
    (String.concat "," (List.map string_of_int adv.Attack.faults))
    adv.Attack.evaluations tolerated

(* Fault-free diameter (the hop-latency bound) and maximum degree at
   k = 2: gdpn's diameter grows with n at the optimal degree k+2 and
   never exceeds the Hayes-style array's; cold spares hold diameter 2 by
   paying degree at least n. *)
let e17 () =
  let module G = Gdpn_graph.Graph in
  let measure g =
    let alive = Gdpn_graph.Bitset.full (G.order g) in
    (* [None] is a disconnected network: no finite diameter to compare. *)
    ( Option.value ~default:max_int
        (Gdpn_graph.Connectivity.diameter g ~alive),
      G.max_degree g )
  in
  let rows =
    List.map
      (fun n ->
        ( n,
          measure (Family.build ~n ~k:2).Instance.graph,
          measure (B.Hayes.graph ~n ~k:2),
          measure (B.Spares.graph ~n ~k:2) ))
      [ 4; 8; 16; 32 ]
  in
  let diameters = List.map (fun (_, (d, _), _, _) -> d) rows in
  let pass =
    List.for_all
      (fun (n, (dg, degg), (dh, _), (ds, degs)) ->
        degg = 4 && dg <= dh && ds = 2 && degs >= n)
      rows
    && List.sort_uniq compare diameters = diameters
  in
  (if pass then ok else bad)
    "diameter/max degree of gdpn, hayes, spares: %s"
    (String.concat "; "
       (List.map
          (fun (n, (dg, degg), (dh, degh), (ds, degs)) ->
            Printf.sprintf "n=%d %d/%d %d/%d %d/%d" n dg degg dh degh ds degs)
          rows))

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", "G(3,k) is k-GD (Figures 2-3, Lemma 3.12)", e1);
    ("E2", "G(1,k): k-GD + uniqueness (Lemma 3.7)", e2);
    ("E3", "G(2,k): k-GD + I≠O necessity (Lemma 3.9)", e3);
    ("E4", "extension operator preserves k-GD (Lemma 3.6)", e4);
    ("E5", "Theorem 3.13 degree table (k=1)", e5);
    ("E6", "Theorem 3.15 degree table (k=2, Figs 10-11)", e6);
    ("E7", "Theorem 3.16 degree table (k=3, Figs 12-13)", e7);
    ("E8", "Lemma 3.14 impossibility + positive control", e8);
    ("E9", "§3.4 circulant family (Theorem 3.17, Figs 14-15)", e9);
    ("E10", "lower bounds L3.1/L3.4/L3.5", e10);
    ("E11", "merged-terminal model", e11);
    ("E12", "prior-work comparison (§2 critique)", e12);
    ("E13", "link faults: graceful vs degraded (extension)", e13);
    ("E14", "local repair rate and latency (extension)", e14);
    ("E15", "beyond-spec survival (extension)", e15);
    ("E16", "adversarial reconfiguration cost (extension)", e16);
    ("E17", "network diameter at k = 2 vs prior work (extension)", e17);
  ]

let () =
  let t_start = Unix.gettimeofday () in
  Format.printf "# gdpn reproduction report%s@.@."
    (if full then " (full depth)" else "");
  Format.printf "| id | experiment | measured | verdict |@.";
  Format.printf "|---|---|---|---|@.";
  let all_pass = ref true in
  List.iter
    (fun (id, title, run) ->
      progress "running %s — %s ..." id title;
      let t0 = Unix.gettimeofday () in
      let v = run () in
      progress "  %s in %.1fs" (if v.pass then "ok" else "FAILED")
        (Unix.gettimeofday () -. t0);
      if not v.pass then all_pass := false;
      Format.printf "| %s | %s | %s | %s |@." id title v.measured
        (if v.pass then "pass" else "**FAIL**"))
    experiments;
  Format.printf "@.%d experiments, %s, %.1fs total.@."
    (List.length experiments)
    (if !all_pass then "all passing" else "FAILURES PRESENT")
    (Unix.gettimeofday () -. t_start);
  exit (if !all_pass then 0 else 1)
