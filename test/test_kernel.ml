(* Kernel-equivalence oracle: the word-parallel bitset-row kernel must be
   observationally identical to the neighbour-array backtracker it
   replaced (Hamilton_oracle) — same [result] AND same expansion count —
   on arbitrary inputs and on the searches the paper's instances pose.
   Whole enumerations are frozen instead: their reports and
   [hamilton.expansions] totals were recorded while that backtracker
   still shipped beside the kernel, and the two agreed on every run.
   These tests pin the search so future kernel work cannot silently
   change it. *)

open Gdpn_core
module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset
module Hamilton = Gdpn_graph.Hamilton
module Metrics = Gdpn_obs.Metrics

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let to_alcotest = List.map QCheck_alcotest.to_alcotest

let pp_result = function
  | Hamilton.Path p ->
    "Path [" ^ String.concat ";" (List.map string_of_int p) ^ "]"
  | Hamilton.No_path -> "No_path"
  | Hamilton.Budget_exceeded -> "Budget_exceeded"

(* Kernel and oracle agree on result and expansion count. *)
let equivalent ?budget g ~alive ~starts ~ends =
  let ek = ref 0 and er = ref 0 in
  let rk = Kernel.spanning_path ?budget ~expansions:ek g ~alive ~starts ~ends in
  let rr =
    Hamilton_oracle.spanning_path ?budget ~expansions:er g ~alive ~starts ~ends
  in
  if rk <> rr then
    QCheck.Test.fail_reportf "results differ: kernel=%s reference=%s"
      (pp_result rk) (pp_result rr);
  if !ek <> !er then
    QCheck.Test.fail_reportf "expansions differ: kernel=%d reference=%d" !ek
      !er;
  true

(* An occasional tight budget, so the Budget_exceeded arm is exercised
   too. *)
let draw_budget rng =
  match Random.State.int rng 4 with
  | 0 -> Some (Random.State.int rng 40)
  | _ -> None

(* Random search problems: an Erdős–Rényi-ish graph plus random
   alive/starts/ends subsets. *)
let problem_gen =
  QCheck.Gen.(
    pair (int_range 1 18) int >|= fun (n, seed) ->
    let rng = Random.State.make [| seed; 977 |] in
    let p = 0.15 +. Random.State.float rng 0.5 in
    let b = Graph.builder n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.float rng 1.0 < p then Graph.add_edge b u v
      done
    done;
    let subset keep_p =
      let s = Bitset.create n in
      for v = 0 to n - 1 do
        if Random.State.float rng 1.0 < keep_p then Bitset.add s v
      done;
      s
    in
    let budget = draw_budget rng in
    (Graph.freeze b, subset 0.8, subset 0.5, subset 0.5, budget))

let print_problem (g, alive, starts, ends, budget) =
  Format.asprintf "graph=%a alive=%a starts=%a ends=%a budget=%s" Graph.pp g
    Bitset.pp alive Bitset.pp starts Bitset.pp ends
    (match budget with None -> "none" | Some b -> string_of_int b)

let problem_arb = QCheck.make ~print:print_problem problem_gen

(* The search Reconfig's generic solver poses for a fault set: the
   healthy processors, starting next to a healthy input terminal and
   ending next to a healthy output terminal.  One draw in three pins
   both ends to a single node, the shape of the circulant layout's ring
   search. *)
let instance_problem rng inst =
  let order = Instance.order inst in
  let g = inst.Instance.graph in
  let alive = Bitset.full order in
  for _ = 1 to Random.State.int rng (inst.Instance.k + 2) do
    Bitset.remove alive (Random.State.int rng order)
  done;
  let procs = Instance.processor_set inst in
  Bitset.inter_into procs alive;
  let endpoints terminals =
    let healthy = Bitset.copy terminals in
    Bitset.inter_into healthy alive;
    let s = Bitset.create order in
    Bitset.iter
      (fun p ->
        if Bitset.count_common (Graph.neighbours_mask g p) healthy > 0 then
          Bitset.add s p)
      procs;
    s
  in
  let starts = endpoints (Instance.input_mask inst)
  and ends = endpoints (Instance.output_mask inst) in
  let pin s =
    match Bitset.elements s with
    | [] -> s
    | l ->
      Bitset.of_list order [ List.nth l (Random.State.int rng (List.length l)) ]
  in
  let starts, ends =
    if Random.State.int rng 3 = 0 then (pin starts, pin ends)
    else (starts, ends)
  in
  (g, procs, starts, ends, draw_budget rng)

(* G(3,5), G(8,2), the circulant G(18,4), and G(6,2) with one or two
   random edges cut. *)
let paper_instances =
  let fixed inst _ = inst in
  let g62 = Special.g62 () in
  let edges = Array.of_list (Graph.edges g62.Instance.graph) in
  let degraded rng =
    let cut _ = edges.(Random.State.int rng (Array.length edges)) in
    let links =
      List.sort_uniq compare (List.init (1 + Random.State.int rng 2) cut)
    in
    Fault_model.degrade_links g62 ~links
  in
  [|
    fixed (Family.build ~n:3 ~k:5);
    fixed (Family.build ~n:8 ~k:2);
    fixed (Circulant_family.build ~n:18 ~k:4);
    degraded;
  |]

let instance_problem_arb =
  QCheck.make ~print:print_problem
    QCheck.Gen.(
      pair (int_bound (Array.length paper_instances - 1)) int
      >|= fun (i, seed) ->
      let rng = Random.State.make [| seed; 4099 |] in
      instance_problem rng (paper_instances.(i) rng))

let random_props =
  let open QCheck in
  [
    Test.make
      ~name:"kernel equals reference on random instances (result+expansions)"
      ~count:300 problem_arb
      (fun (g, alive, starts, ends, budget) ->
        equivalent ?budget g ~alive ~starts ~ends);
    Test.make ~name:"kernel equals reference with alive = everything"
      ~count:120 problem_arb
      (fun (g, _, starts, ends, budget) ->
        let alive = Bitset.full (Graph.order g) in
        equivalent ?budget g ~alive ~starts ~ends);
    Test.make ~name:"kernel equals reference on the paper's instances"
      ~count:400 instance_problem_arb
      (fun (g, alive, starts, ends, budget) ->
        equivalent ?budget g ~alive ~starts ~ends);
  ]

(* ------------------------------------------------------------------ *)
(* Frozen enumerations                                                 *)
(* ------------------------------------------------------------------ *)

(* A frozen run: the report's one-line summary, the MD5 of every failure
   it lists (element syntax, orbit size and reason), and the total
   [hamilton.expansions] the run spent — read from the metric cell
   around the run; the tests run sequentially, so the delta is exact. *)
let counter_delta name f =
  let cell = Metrics.counter name in
  let before = Metrics.value cell in
  let r = f () in
  (r, Metrics.value cell - before)

let no_failures = Digest.to_hex (Digest.string "")

let check_frozen name model run ~summary ?(failures = no_failures)
    ~expansions () =
  let r, e = counter_delta "hamilton.expansions" run in
  check Alcotest.string (name ^ ": report") summary
    (Format.asprintf "%a" (Verify.pp_report_model model) r);
  check Alcotest.string (name ^ ": failures") failures
    (Digest.to_hex
       (Digest.string
          (String.concat ";"
             (List.map
                (fun f ->
                  Printf.sprintf "%s x%d %s"
                    (Fault_model.describe model f.Verify.faults)
                    f.Verify.orbit f.Verify.reason)
                r.Verify.failures))));
  check Alcotest.int (name ^ ": expansions") expansions e

(* A node-model exhaustive verification with the default splicing. *)
let check_family name inst ~summary ~expansions =
  check_frozen name (Fault_model.node inst)
    (fun () -> Verify.exhaustive inst)
    ~summary ~expansions ()

let family_tests =
  [
    tc "G(1,k) exhaustive verifies agree" (fun () ->
        (* The processor-clique scan never searches. *)
        List.iter
          (fun (k, summary) ->
            check_family (Printf.sprintf "G(1,%d)" k) (Small_n.g1 ~k) ~summary
              ~expansions:0)
          [
            (2, "checked 46 fault sets: all tolerated");
            (3, "checked 299 fault sets: all tolerated");
            (4, "checked 1941 fault sets: all tolerated");
          ]);
    tc "G(3,k) exhaustive verifies agree" (fun () ->
        List.iter
          (fun (k, summary, expansions) ->
            check_family (Printf.sprintf "G(3,%d)" k) (Small_n.g3 ~k) ~summary
              ~expansions)
          [
            (2, "checked 67 fault sets: all tolerated", 107);
            (3, "checked 470 fault sets: all tolerated", 609);
            (4, "checked 3214 fault sets: all tolerated", 3533);
          ]);
    tc "circulant sampled verifies agree" (fun () ->
        (* The smallest circulant (k >= 4) already has a ~67k-set fault
           space, so the family check samples a fixed stream instead of
           exhausting it. *)
        let inst = Circulant_family.build ~n:18 ~k:4 in
        check_frozen "G(18,4) sampled" (Fault_model.node inst)
          (fun () ->
            Verify.sampled ~rng:(Random.State.make [| 7177 |]) ~trials:600 inst)
          ~summary:"checked 600 fault sets: all tolerated" ~expansions:8191 ());
    tc "special instances G(4,3) and G(6,2) agree" (fun () ->
        check_family "G(4,3)" (Special.g43 ())
          ~summary:"checked 576 fault sets: all tolerated" ~expansions:972;
        check_family "G(6,2)" (Special.g62 ())
          ~summary:"checked 106 fault sets: all tolerated" ~expansions:451);
    tc "generic solver agrees on random fault masks of G(40,4)" (fun () ->
        (* 60 random masks: the MD5 of their rendered outcomes (every one
           a pipeline) and the expansions spent finding them. *)
        let inst = Circulant_family.build ~n:40 ~k:4 in
        let order = Instance.order inst in
        let rng = Random.State.make [| 4242 |] in
        let masks =
          List.init 60 (fun _ ->
              let faults = Bitset.create order in
              for _ = 1 to Random.State.int rng (inst.Instance.k + 1) do
                Bitset.add faults (Random.State.int rng order)
              done;
              faults)
        in
        let outcomes, expansions =
          counter_delta "hamilton.expansions" (fun () ->
              List.map
                (fun faults ->
                  match Reconfig.solve_generic inst ~faults with
                  | Reconfig.Pipeline p -> Format.asprintf "%a" Pipeline.pp p
                  | Reconfig.No_pipeline -> "none"
                  | Reconfig.Gave_up -> "gave up")
                masks)
        in
        check Alcotest.string "outcomes" "8861d2c70ad6794dd2d3d0ac31345449"
          (Digest.to_hex (Digest.string (String.concat "\n" outcomes)));
        check Alcotest.int "expansions" 2913 expansions);
  ]

(* The enumerations [gdp verify --crosscheck] drained through both
   backtrackers, splicing off so every set reaches the search, over the
   universe and symmetry of the CLI run. *)
let check_enumeration name ?universe ?(symmetric = false) model =
  let symmetry =
    if symmetric then Some (Instance.symmetry (Fault_model.instance model))
    else None
  in
  check_frozen name model (fun () ->
      Verify.exhaustive_model ~max_failures:1_000_000 ?universe ?symmetry
        ~splice:false model)

let enumeration_tests =
  let node = Fault_model.node and mixed = Fault_model.mixed in
  [
    tc "node G(8,2): plain, symmetric and merged" (fun () ->
        let inst = Family.build ~n:8 ~k:2 in
        check_enumeration "G(8,2)" (node inst)
          ~summary:"checked 137 fault sets: all tolerated" ~expansions:1581 ();
        check_enumeration "G(8,2) symmetric" ~symmetric:true (node inst)
          ~summary:
            "checked 137 fault sets (73 orbit representatives solved): all \
             tolerated"
          ~expansions:853 ();
        let merged = Merge.apply inst in
        check_enumeration "merged G(8,2)"
          ~universe:(Instance.processors merged) (node merged)
          ~summary:"checked 56 fault sets: all tolerated" ~expansions:597 ());
    tc "node G(3,5): plain and symmetric" (fun () ->
        let inst = Family.build ~n:3 ~k:5 in
        check_enumeration "G(3,5)" (node inst)
          ~summary:"checked 21700 fault sets: all tolerated"
          ~expansions:136796 ();
        check_enumeration "G(3,5) symmetric" ~symmetric:true (node inst)
          ~summary:
            "checked 21700 fault sets (1262 orbit representatives solved): \
             all tolerated"
          ~expansions:7995 ());
    tc "mixed G(5,2) plain, G(6,2) and G(3,4) symmetric" (fun () ->
        check_enumeration "mixed G(5,2)" (mixed (Family.build ~n:5 ~k:2))
          ~summary:
            "checked 497 fault sets: 3 failures (first: {4,5-6} — no \
             pipeline)"
          ~failures:"c12a932cc2fe649f734f487546176d54" ~expansions:3078 ();
        check_enumeration "mixed G(6,2) symmetric" ~symmetric:true
          (mixed (Family.build ~n:6 ~k:2))
          ~summary:
            "checked 562 fault sets (310 orbit representatives solved): 1 \
             failures (first: {0,1-2} ×2 orbit — no pipeline)"
          ~failures:"db95a6fe5f66bf6897744f883778b1fd" ~expansions:3028 ();
        check_enumeration "mixed G(3,4) symmetric" ~symmetric:true
          (mixed (Family.build ~n:3 ~k:4))
          ~summary:
            "checked 164221 fault sets (91401 orbit representatives \
             solved): 1 failures (first: {0,1,6,3-5} — no pipeline)"
          ~failures:"6a49e9e377ea1cefc96ee374021c2a56" ~expansions:590428 ());
    tc "colored and neighbor G(3,2) symmetric" (fun () ->
        let inst = Family.build ~n:3 ~k:2 in
        let model name = Option.get (Fault_model.of_name inst name) in
        check_enumeration "colored G(3,2)" ~symmetric:true (model "colored")
          ~summary:"checked 67 fault sets: 45 failures (first: {c0} — no \
                    pipeline)"
          ~failures:"9975032a21bc3d0eb375673417750661" ~expansions:190 ();
        check_enumeration "neighbor G(3,2)" ~symmetric:true (model "neighbor")
          ~summary:"checked 67 fault sets: 40 failures (first: {n0} — no \
                    pipeline)"
          ~failures:"534be7427f99e6429df2e948d3b07265" ~expansions:83 ());
  ]

let () =
  Alcotest.run "gdpn_kernel"
    [
      ("random-oracle", to_alcotest random_props);
      ("frozen-families", family_tests);
      ("frozen-verifies", enumeration_tests);
    ]
