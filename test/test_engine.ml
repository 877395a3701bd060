(* Tests for the engine layer: plan-cache fidelity (cached solves agree
   with the plain solver over exhaustive fault sets) and domain-sharded
   verification (parallel reports equal the independent reference
   verifier's, Testutil.reference_exhaustive, field for field, including
   failure lists and early-stop counts; sampled reports equal Verify's
   calling-domain drain). *)

open Gdpn_core
module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Engine = Gdpn_engine.Engine

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let outcome_class = function
  | Reconfig.Pipeline _ -> "pipeline"
  | Reconfig.No_pipeline -> "no-pipeline"
  | Reconfig.Gave_up -> "gave-up"

(* Every fault subset of size [0..k] over all nodes of [inst]. *)
let iter_fault_masks inst f =
  let order = Instance.order inst in
  let mask = Bitset.create order in
  Combinat.iter_subsets_up_to order inst.Instance.k (fun buf len ->
      Bitset.clear mask;
      for i = 0 to len - 1 do
        Bitset.add mask buf.(i)
      done;
      f mask (Array.to_list (Array.sub buf 0 len)))

let small_instances =
  List.concat_map
    (fun k -> [ Small_n.g1 ~k; Small_n.g2 ~k; Small_n.g3 ~k ])
    [ 1; 2; 3 ]

(* An instance whose declared tolerance overstates the real one, so
   verification produces genuine failures (and exercises early stop). *)
let overclaimed inst =
  Instance.make ~graph:inst.Instance.graph ~kind:inst.Instance.kind
    ~n:inst.Instance.n
    ~k:(inst.Instance.k + 2)
    ~name:(inst.Instance.name ^ "+2") ~strategy:Instance.Generic

let check_report label (expected : Verify.report) (actual : Verify.report) =
  check Alcotest.int (label ^ ": fault_sets_checked")
    expected.Verify.fault_sets_checked actual.Verify.fault_sets_checked;
  check Alcotest.int (label ^ ": gave_up") expected.Verify.gave_up
    actual.Verify.gave_up;
  check Alcotest.int (label ^ ": failure count")
    (List.length expected.Verify.failures)
    (List.length actual.Verify.failures);
  List.iter2
    (fun (e : Verify.failure) (a : Verify.failure) ->
      check (Alcotest.list Alcotest.int) (label ^ ": failure faults")
        e.Verify.faults a.Verify.faults;
      check Alcotest.string (label ^ ": failure reason") e.Verify.reason
        a.Verify.reason)
    expected.Verify.failures actual.Verify.failures

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    tc "cached solves match the plain solver on exhaustive fault sets"
      (fun () ->
        List.iter
          (fun inst ->
            let engine = Engine.create inst in
            iter_fault_masks inst (fun mask faults ->
                let plain = Reconfig.solve inst ~faults:mask in
                let cached = Engine.solve engine ~faults:mask in
                let label =
                  Printf.sprintf "%s faults={%s}" inst.Instance.name
                    (String.concat "," (List.map string_of_int faults))
                in
                check Alcotest.string label (outcome_class plain)
                  (outcome_class cached);
                (* A cached/spliced witness need not equal the solver's,
                   but it must be a genuine pipeline for this fault set. *)
                match cached with
                | Reconfig.Pipeline p ->
                  check Alcotest.bool (label ^ " witness valid") true
                    (Pipeline.is_valid inst ~faults:mask p.Pipeline.nodes)
                | Reconfig.No_pipeline | Reconfig.Gave_up -> ()))
          small_instances);
    tc "revisited masks are answered from the cache" (fun () ->
        let inst = Small_n.g3 ~k:3 in
        let engine = Engine.create inst in
        iter_fault_masks inst (fun mask _ ->
            ignore (Engine.solve engine ~faults:mask));
        let first = Engine.stats engine in
        let solves_before = first.Engine.full_solves in
        let hits_before = first.Engine.cache_hits in
        iter_fault_masks inst (fun mask faults ->
            match Engine.solve engine ~faults:mask with
            | Reconfig.Pipeline _ -> ()
            | Reconfig.No_pipeline | Reconfig.Gave_up ->
              if List.length faults <= inst.Instance.k then
                Alcotest.fail "lost a pipeline within spec");
        let second = Engine.stats engine in
        check Alcotest.int "no new full solves" solves_before
          second.Engine.full_solves;
        check Alcotest.int "every lookup hit"
          (hits_before + Combinat.count_up_to (Instance.order inst) 3)
          second.Engine.cache_hits);
    tc "splices fire on single faults after the empty-set solve" (fun () ->
        let inst = Small_n.g2 ~k:3 in
        let engine = Engine.create inst in
        let order = Instance.order inst in
        ignore (Engine.solve engine ~faults:(Bitset.create order));
        for v = 0 to order - 1 do
          let mask = Bitset.create order in
          Bitset.add mask v;
          ignore (Engine.solve engine ~faults:mask)
        done;
        let s = Engine.stats engine in
        check Alcotest.bool "some splices" true (s.Engine.splices > 0);
        check Alcotest.bool "fewer full solves than masks" true
          (s.Engine.full_solves < order + 1));
    tc "reset drops plans and counters" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let engine = Engine.create inst in
        ignore (Engine.solve_list engine ~faults:[ 0 ]);
        Engine.reset engine;
        check Alcotest.int "cache empty" 0 (Engine.cache_size engine);
        check Alcotest.int "lookups zeroed" 0
          (Engine.stats engine).Engine.lookups);
  ]

(* ------------------------------------------------------------------ *)
(* Parallel verification                                               *)
(* ------------------------------------------------------------------ *)

let parallel_tests =
  [
    tc "parallel exhaustive equals sequential on healthy instances"
      (fun () ->
        List.iter
          (fun inst ->
            let expected = Testutil.reference_exhaustive inst in
            List.iter
              (fun domains ->
                let actual =
                  Engine.Parallel.verify_exhaustive ~domains inst
                in
                check_report
                  (Printf.sprintf "%s domains=%d" inst.Instance.name domains)
                  expected actual)
              [ 1; 2; 4 ])
          [ Small_n.g1 ~k:3; Small_n.g3 ~k:2; Special.g62 () ]);
    tc "parallel exhaustive reproduces failures and early stop" (fun () ->
        List.iter
          (fun inst ->
            let inst = overclaimed inst in
            List.iter
              (fun max_failures ->
                let expected =
                  Testutil.reference_exhaustive ~max_failures inst
                in
                check Alcotest.bool "setup produced failures" true
                  (expected.Verify.failures <> []);
                List.iter
                  (fun domains ->
                    let actual =
                      Engine.Parallel.verify_exhaustive ~max_failures ~domains
                        inst
                    in
                    check_report
                      (Printf.sprintf "%s cap=%d domains=%d"
                         inst.Instance.name max_failures domains)
                      expected actual)
                  [ 1; 2; 3 ])
              [ 1; 2; 5; 1000 ])
          [ Small_n.g1 ~k:1; Small_n.g2 ~k:2 ]);
    tc "parallel sampled equals sequential for a fixed seed" (fun () ->
        List.iter
          (fun (inst, seed, trials) ->
            let expected =
              Verify.sampled
                ~rng:(Random.State.make [| seed |])
                ~trials inst
            in
            List.iter
              (fun domains ->
                let actual =
                  Engine.Parallel.verify_sampled ~seed ~trials ~domains inst
                in
                check_report
                  (Printf.sprintf "%s seed=%d domains=%d" inst.Instance.name
                     seed domains)
                  expected actual)
              [ 1; 3 ])
          [
            (Small_n.g3 ~k:3, 11, 400);
            (overclaimed (Small_n.g2 ~k:2), 23, 400);
          ]);
    (* The multi-domain calls above stay below the serial-fallback
       threshold, so they exercise the degradation path; these force real
       pool sharding with [~min_items_per_domain:0] and must still be
       byte-identical. *)
    tc "forced pool sharding is byte-identical to sequential" (fun () ->
        List.iter
          (fun inst ->
            let expected = Testutil.reference_exhaustive inst in
            List.iter
              (fun domains ->
                let actual =
                  Engine.Parallel.verify_exhaustive ~domains
                    ~min_items_per_domain:0 inst
                in
                check_report
                  (Printf.sprintf "%s pooled domains=%d" inst.Instance.name
                     domains)
                  expected actual)
              [ 2; 3; 4 ])
          [ Small_n.g1 ~k:3; Special.g62 (); overclaimed (Small_n.g2 ~k:2) ]);
    tc "forced pool sharding reproduces failures and early stop" (fun () ->
        let inst = overclaimed (Small_n.g2 ~k:2) in
        List.iter
          (fun max_failures ->
            let expected = Testutil.reference_exhaustive ~max_failures inst in
            check Alcotest.bool "setup produced failures" true
              (expected.Verify.failures <> []);
            let actual =
              Engine.Parallel.verify_exhaustive ~max_failures ~domains:3
                ~min_items_per_domain:0 inst
            in
            check_report
              (Printf.sprintf "pooled cap=%d" max_failures)
              expected actual)
          [ 1; 2; 5; 1000 ]);
    tc "orbit-reduced parallel equals sequential, serial and pooled"
      (fun () ->
        List.iter
          (fun inst ->
            let sym = Instance.symmetry inst in
            let expected = Testutil.reference_exhaustive ~symmetry:sym inst in
            List.iter
              (fun (domains, min_items) ->
                let actual =
                  Engine.Parallel.verify_exhaustive ~domains
                    ?min_items_per_domain:min_items ~symmetry:sym inst
                in
                check_report
                  (Printf.sprintf "%s orbit domains=%d forced=%b"
                     inst.Instance.name domains (min_items = Some 0))
                  expected actual)
              [ (1, None); (2, None); (2, Some 0); (3, Some 0) ])
          [ Small_n.g1 ~k:3; overclaimed (Small_n.g2 ~k:2) ]);
    tc "forced pool sampling equals sequential for a fixed seed" (fun () ->
        let inst = overclaimed (Small_n.g2 ~k:2) in
        let seed = 23 and trials = 400 in
        let expected =
          Verify.sampled ~rng:(Random.State.make [| seed |]) ~trials inst
        in
        let actual =
          Engine.Parallel.verify_sampled ~seed ~trials ~domains:3
            ~min_items_per_domain:0 inst
        in
        check_report "pooled sampled" expected actual);
    tc "certificates generated through the engine stay valid" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let engine = Engine.create inst in
        match Certify.check inst (Engine.certify engine) with
        | Ok count ->
          check Alcotest.int "covers the fault space"
            (Combinat.count_up_to (Instance.order inst) inst.Instance.k)
            count
        | Error e -> Alcotest.fail e);
  ]

let () =
  Alcotest.run "gdpn_engine"
    [ ("cache", cache_tests); ("parallel", parallel_tests) ]
