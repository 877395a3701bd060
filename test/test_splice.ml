(* Oracle tests for prefix-tree splice-first verification: the spliced
   enumeration must report *byte-identically* to from-scratch solving —
   same verdicts, same failure lists in the same order, same counts —
   because positives are revalidated splices and negatives always come
   from a full solve.  Both must also equal the independent reference
   verifier (Testutil.reference_exhaustive), which checks set by set in
   canonical order with no work units.  Also pins down the work-stealing
   scheduler: N-domain forced sharding must reproduce the reference
   report exactly. *)

open Gdpn_core
module Engine = Gdpn_engine.Engine
module Metrics = Gdpn_obs.Metrics

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let to_alcotest = List.map QCheck_alcotest.to_alcotest

let report_testable : Verify.report Alcotest.testable =
  Alcotest.testable Verify.pp_report ( = )

(* An instance whose declared tolerance overstates the real one, so
   verification produces genuine failures (and exercises early stop). *)
let overclaimed inst =
  Instance.make ~graph:inst.Instance.graph ~kind:inst.Instance.kind
    ~n:inst.Instance.n
    ~k:(inst.Instance.k + 2)
    ~name:(inst.Instance.name ^ "+2") ~strategy:Instance.Generic

(* G(1,2) minus a clique edge is not 2-GD (Lemma 3.7): single faults
   already break it, so the unit holding the singletons must report
   them. *)
let broken_g1 () =
  let module Graph = Gdpn_graph.Graph in
  let inst = Small_n.g1 ~k:2 in
  let g = inst.Instance.graph in
  let b = Graph.builder (Graph.order g) in
  List.iter
    (fun (u, v) -> if (u, v) <> (0, 1) then Graph.add_edge b u v)
    (Graph.edges g);
  Instance.make ~graph:(Graph.freeze b)
    ~kind:(Array.init (Instance.order inst) (Instance.kind_of inst))
    ~n:1 ~k:2 ~name:"G(1,2) minus an edge" ~strategy:Instance.Generic

let frozen_instances () =
  [
    broken_g1 ();
    Small_n.g1 ~k:1;
    Small_n.g1 ~k:3;
    Small_n.g3 ~k:2;
    Special.g62 ();
    Circulant_family.build ~n:Circulant_family.(min_n ~k:4) ~k:4;
    overclaimed (Small_n.g1 ~k:1);
    overclaimed (Small_n.g2 ~k:2);
  ]

(* ------------------------------------------------------------------ *)
(* Splice-on vs splice-off oracle                                      *)
(* ------------------------------------------------------------------ *)

let oracle_tests =
  [
    tc "splice reports equal from-scratch on frozen families" (fun () ->
        List.iter
          (fun inst ->
            List.iter
              (fun max_failures ->
                let scratch =
                  Verify.exhaustive ~max_failures ~splice:false inst
                in
                let spliced =
                  Verify.exhaustive ~max_failures ~splice:true inst
                in
                let label =
                  Printf.sprintf "%s cap=%d" inst.Instance.name max_failures
                in
                check report_testable label scratch spliced;
                check report_testable (label ^ " reference")
                  (Testutil.reference_exhaustive ~max_failures inst)
                  spliced)
              [ 1; 2; 5; 1000 ])
          (frozen_instances ()));
    tc "splice respects a restricted (merged-model) universe" (fun () ->
        List.iter
          (fun inst ->
            let universe = Instance.processors inst in
            let scratch = Verify.exhaustive ~universe ~splice:false inst in
            let spliced = Verify.exhaustive ~universe ~splice:true inst in
            check report_testable inst.Instance.name scratch spliced;
            check report_testable
              (inst.Instance.name ^ " reference")
              (Testutil.reference_exhaustive ~universe inst)
              spliced)
          [ Small_n.g3 ~k:2; overclaimed (Small_n.g2 ~k:2) ]);
    tc "a restricted universe reports elements, not positions" (fun () ->
        let inst = overclaimed (Small_n.g2 ~k:2) in
        let universe = List.tl (List.init (Instance.order inst) Fun.id) in
        let expected = Testutil.reference_exhaustive ~universe inst in
        check Alcotest.bool "has failures" true
          (expected.Verify.failures <> []);
        List.iter
          (fun splice ->
            check report_testable
              (Printf.sprintf "splice=%b" splice)
              expected
              (Verify.exhaustive ~universe ~splice inst))
          [ true; false ]);
    tc "orbit-reduced splice equals orbit-reduced from-scratch" (fun () ->
        List.iter
          (fun inst ->
            let symmetry = Instance.symmetry inst in
            List.iter
              (fun max_failures ->
                let scratch =
                  Verify.exhaustive ~max_failures ~symmetry ~splice:false inst
                in
                let spliced =
                  Verify.exhaustive ~max_failures ~symmetry ~splice:true inst
                in
                let label =
                  Printf.sprintf "%s orbit cap=%d" inst.Instance.name
                    max_failures
                in
                check report_testable label scratch spliced;
                check report_testable (label ^ " reference")
                  (Testutil.reference_exhaustive ~max_failures ~symmetry inst)
                  spliced)
              [ 1; 5; 1000 ])
          [ Small_n.g1 ~k:3; Special.g62 (); overclaimed (Small_n.g2 ~k:2) ]);
    tc "a plain unit starts from its singleton's reported outcome"
      (fun () ->
        (* Unit 0 reports G(8,2)'s singletons; the units rooted at each
           element reuse those outcomes, so a one-domain drain searches
           as often as one prefix-tree walk: the empty set is the only
           scaffold solve. *)
        let searches = Metrics.counter "hamilton.searches"
        and scaffolds = Metrics.counter "verify.scaffold_solves" in
        let s0 = Metrics.value searches and c0 = Metrics.value scaffolds in
        let report =
          Engine.Parallel.verify_exhaustive ~domains:1 (Family.build ~n:8 ~k:2)
        in
        check Alcotest.int "sets" 137 report.Verify.fault_sets_checked;
        check Alcotest.int "Hamilton searches" 74
          (Metrics.value searches - s0);
        check Alcotest.int "scaffold solves" 1 (Metrics.value scaffolds - c0));
    tc "splicing actually fires and saves full solves" (fun () ->
        let inst = Special.g62 () in
        let splices = Metrics.counter "verify.splices" in
        let before = Metrics.value splices in
        ignore (Verify.exhaustive ~splice:true inst);
        check Alcotest.bool "some splices" true
          (Metrics.value splices - before > 0));
  ]

let oracle_props =
  let open QCheck in
  [
    Test.make
      ~name:"splice equals from-scratch on random family instances" ~count:40
      (quad (int_range 1 8) (int_range 1 3) (int_range 1 6) bool)
      (fun (n, k, max_failures, overclaim) ->
        let inst = Family.build ~n ~k in
        let inst = if overclaim then overclaimed inst else inst in
        let expected = Testutil.reference_exhaustive ~max_failures inst in
        Verify.exhaustive ~max_failures ~splice:false inst = expected
        && Verify.exhaustive ~max_failures ~splice:true inst = expected);
    Test.make
      ~name:"orbit-reduced splice equals from-scratch on random instances"
      ~count:25
      (triple (int_range 1 7) (int_range 1 3) bool)
      (fun (n, k, overclaim) ->
        let inst = Family.build ~n ~k in
        let inst = if overclaim then overclaimed inst else inst in
        let symmetry = Instance.symmetry inst in
        let expected = Testutil.reference_exhaustive ~symmetry inst in
        Verify.exhaustive ~symmetry ~splice:false inst = expected
        && Verify.exhaustive ~symmetry ~splice:true inst = expected);
  ]

(* ------------------------------------------------------------------ *)
(* Work-stealing scheduler determinism                                 *)
(* ------------------------------------------------------------------ *)

let scheduler_tests =
  [
    tc "forced sharding is deterministic across domain counts" (fun () ->
        List.iter
          (fun inst ->
            List.iter
              (fun splice ->
                let sequential = Testutil.reference_exhaustive inst in
                List.iter
                  (fun domains ->
                    let actual =
                      Engine.Parallel.verify_exhaustive ~domains
                        ~min_items_per_domain:0 ~splice inst
                    in
                    check report_testable
                      (Printf.sprintf "%s splice=%b domains=%d"
                         inst.Instance.name splice domains)
                      sequential actual)
                  [ 1; 2; 3; 4 ])
              [ true; false ])
          [ Small_n.g1 ~k:3; Special.g62 (); overclaimed (Small_n.g2 ~k:2) ]);
    tc "forced sharding with early stop stays deterministic" (fun () ->
        let inst = overclaimed (Small_n.g2 ~k:2) in
        List.iter
          (fun max_failures ->
            let sequential =
              Testutil.reference_exhaustive ~max_failures inst
            in
            List.iter
              (fun domains ->
                let actual =
                  Engine.Parallel.verify_exhaustive ~max_failures ~domains
                    ~min_items_per_domain:0 inst
                in
                check report_testable
                  (Printf.sprintf "cap=%d domains=%d" max_failures domains)
                  sequential actual)
              [ 1; 2; 4 ])
          [ 1; 2; 5 ]);
    tc "orbit-reduced forced sharding matches sequential both ways"
      (fun () ->
        List.iter
          (fun inst ->
            let symmetry = Instance.symmetry inst in
            List.iter
              (fun splice ->
                let sequential =
                  Testutil.reference_exhaustive ~symmetry inst
                in
                List.iter
                  (fun domains ->
                    let actual =
                      Engine.Parallel.verify_exhaustive ~domains
                        ~min_items_per_domain:0 ~symmetry ~splice inst
                    in
                    check report_testable
                      (Printf.sprintf "%s orbit splice=%b domains=%d"
                         inst.Instance.name splice domains)
                      sequential actual)
                  [ 1; 3 ])
              [ true; false ])
          [ Small_n.g1 ~k:3; overclaimed (Small_n.g2 ~k:2) ]);
  ]

let () =
  Alcotest.run "gdpn_splice"
    [
      ("oracle", oracle_tests @ to_alcotest oracle_props);
      ("scheduler", scheduler_tests);
    ]
