(* Tests for the fault-model layer.

   Verification has one body per job, written over Fault_model.t; the
   node model is the paper's node-fault path.  The reports the separate
   node-only verifier produced, before it was folded into that body, are
   frozen below as literals (counts, full failure lists, gave-up tallies)
   and the node model must reproduce them on every path: sequential DFS,
   orbit-reduced, splice on/off, early stop, the processors-only
   universe, sampled, and work-stealing shards.  Frozen mixed node+link
   exhaustive results pin the generalized semantics themselves, and the
   satellite layers (certificates, link wrapper, machine, injector,
   attack) are checked against the model. *)

open Gdpn_core
module Engine = Gdpn_engine.Engine
module Bitset = Gdpn_graph.Bitset
module Faultsim = Gdpn_faultsim

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let report_testable : Verify.report Alcotest.testable =
  Alcotest.testable Verify.pp_report ( = )

(* An instance whose declared tolerance overstates the real one, so
   verification produces genuine failures (and exercises early stop). *)
let overclaimed inst =
  Instance.make ~graph:inst.Instance.graph ~kind:inst.Instance.kind
    ~n:inst.Instance.n
    ~k:(inst.Instance.k + 2)
    ~name:(inst.Instance.name ^ "+2") ~strategy:Instance.Generic

let frozen_instances () =
  [
    Small_n.g1 ~k:1;
    Small_n.g1 ~k:3;
    Small_n.g3 ~k:2;
    Special.g62 ();
    overclaimed (Small_n.g1 ~k:1);
    overclaimed (Small_n.g2 ~k:2);
  ]

(* ------------------------------------------------------------------ *)
(* Frozen node-model reports                                           *)
(* ------------------------------------------------------------------ *)

(* A frozen report: the node-only verifier's output, recorded as
   literals when it was folded into the model path. *)
let rep checked calls gave_up failures =
  {
    Verify.fault_sets_checked = checked;
    solver_calls = calls;
    gave_up;
    failures =
      List.map
        (fun (faults, reason, orbit) -> { Verify.faults; reason; orbit })
        failures;
  }

let nopipe ?(orbit = 1) faults = (faults, "no pipeline", orbit)

let over_g2_2 =
  rep 75 75 0
    [
      nopipe [ 0; 2; 3 ];
      nopipe [ 0; 2; 6 ];
      nopipe [ 0; 2; 7 ];
      nopipe [ 0; 3; 5 ];
      nopipe [ 0; 3; 7 ];
    ]

(* [frozen_instances] in order. *)
let frozen_family_reports =
  [
    rep 7 7 0 [];
    rep 299 299 0 [];
    rep 67 67 0 [];
    rep 106 106 0 [];
    rep 15 15 0
      [
        nopipe [ 0; 1 ];
        nopipe [ 0; 3 ];
        nopipe [ 0; 5 ];
        nopipe [ 1; 2 ];
        nopipe [ 1; 4 ];
      ];
    over_g2_2;
  ]

let frozen_orbit_reports () =
  [
    (Small_n.g1 ~k:3, rep 299 21 0 []);
    (Special.g62 (), rep 106 61 0 []);
    ( overclaimed (Small_n.g2 ~k:2),
      rep 122 41 0
        [
          nopipe ~orbit:2 [ 0; 2; 3 ];
          nopipe ~orbit:4 [ 0; 2; 6 ];
          nopipe ~orbit:4 [ 0; 2; 7 ];
          nopipe ~orbit:2 [ 0; 5; 6 ];
          nopipe ~orbit:2 [ 2; 3; 4 ];
        ] );
  ]

let frozen_shard_reports () =
  [
    (Small_n.g1 ~k:3, rep 299 299 0 []);
    (overclaimed (Small_n.g2 ~k:2), over_g2_2);
  ]

let frozen_tests =
  let node = Fault_model.node in
  [
    tc "node model equals legacy verifier on frozen families" (fun () ->
        List.iter2
          (fun inst expected ->
            List.iter
              (fun splice ->
                check report_testable
                  (Printf.sprintf "%s splice=%b" inst.Instance.name splice)
                  expected
                  (Verify.exhaustive_model ~splice (node inst)))
              [ true; false ])
          (frozen_instances ()) frozen_family_reports);
    tc "node model equals legacy under orbit reduction" (fun () ->
        List.iter
          (fun (inst, expected) ->
            let symmetry = Instance.symmetry inst in
            List.iter
              (fun splice ->
                check report_testable
                  (Printf.sprintf "%s orbit splice=%b" inst.Instance.name
                     splice)
                  expected
                  (Verify.exhaustive_model ~symmetry ~splice (node inst)))
              [ true; false ])
          (frozen_orbit_reports ()));
    tc "node model equals legacy under early stop" (fun () ->
        let model = node (overclaimed (Small_n.g2 ~k:2)) in
        List.iter
          (fun (max_failures, expected) ->
            check report_testable
              (Printf.sprintf "cap=%d" max_failures)
              expected
              (Verify.exhaustive_model ~max_failures model))
          [
            (1, rep 65 65 0 [ nopipe [ 0; 2; 3 ] ]);
            (2, rep 68 68 0 [ nopipe [ 0; 2; 3 ]; nopipe [ 0; 2; 6 ] ]);
            (5, over_g2_2);
          ]);
    tc "node model equals legacy on a restricted universe" (fun () ->
        List.iter
          (fun (inst, expected) ->
            let universe = Instance.processors inst in
            List.iter
              (fun splice ->
                check report_testable
                  (Printf.sprintf "%s splice=%b" inst.Instance.name splice)
                  expected
                  (Verify.exhaustive_model ~universe ~splice (node inst)))
              [ true; false ])
          [
            (Small_n.g3 ~k:2, rep 16 16 0 []);
            ( overclaimed (Small_n.g2 ~k:2),
              rep 16 16 0
                [
                  nopipe [ 0; 2; 3 ]; nopipe [ 1; 2; 3 ]; nopipe [ 0; 1; 2; 3 ];
                ] );
          ]);
    tc "node model equals legacy on the sampled path" (fun () ->
        List.iter
          (fun (inst, expected) ->
            check report_testable inst.Instance.name expected
              (Verify.sampled_model
                 ~rng:(Random.State.make [| 7 |])
                 ~trials:200 (node inst)))
          [
            (Small_n.g1 ~k:3, rep 200 200 0 []);
            ( overclaimed (Small_n.g2 ~k:2),
              rep 27 27 0
                [
                  nopipe [ 1; 7; 8; 9 ];
                  nopipe [ 1; 6; 8; 9 ];
                  nopipe [ 2; 5; 7; 9 ];
                  nopipe [ 0; 5; 6 ];
                  nopipe [ 0; 1; 2; 9 ];
                ] );
          ]);
    tc "node model equals legacy under forced sharding" (fun () ->
        List.iter
          (fun (inst, expected) ->
            List.iter
              (fun splice ->
                List.iter
                  (fun domains ->
                    check report_testable
                      (Printf.sprintf "%s splice=%b domains=%d"
                         inst.Instance.name splice domains)
                      expected
                      (Engine.Parallel.run_task ~domains
                         ~min_items_per_domain:0
                         (Engine.Parallel.Task.exhaustive_model ~splice
                            (node inst))))
                  [ 1; 2; 3; 4 ])
              [ true; false ])
          (frozen_shard_reports ()));
    tc "node model equals legacy under orbit-reduced sharding" (fun () ->
        List.iter
          (fun (inst, expected) ->
            let symmetry = Instance.symmetry inst in
            List.iter
              (fun domains ->
                check report_testable
                  (Printf.sprintf "%s domains=%d" inst.Instance.name domains)
                  expected
                  (Engine.Parallel.run_task ~domains ~min_items_per_domain:0
                     (Engine.Parallel.Task.exhaustive_model ~symmetry
                        (node inst))))
              [ 1; 2; 3; 4 ])
          (frozen_orbit_reports ()));
    tc "node model equals legacy on the parallel sampled path" (fun () ->
        let model = node (overclaimed (Small_n.g2 ~k:2)) in
        let expected =
          rep 10 10 0
            [
              nopipe [ 2; 7; 9 ];
              nopipe [ 1; 3; 4; 8 ];
              nopipe [ 0; 5; 6; 8 ];
              nopipe [ 3; 4; 7 ];
              nopipe [ 3; 4; 7 ];
            ]
        in
        List.iter
          (fun domains ->
            check report_testable
              (Printf.sprintf "parallel sampled domains=%d" domains)
              expected
              (Engine.Parallel.run_task ~domains ~min_items_per_domain:0
                 (Engine.Parallel.Task.sampled_model
                    ~rng:(Random.State.make [| 11 |])
                    ~trials:300 model)))
          [ 1; 2; 3; 4 ]);
    tc "engine solve_model on the node model is the legacy solve" (fun () ->
        (* Uncached, the engine's node path is the plain solver; cached,
           it may splice a different pipeline, but never a different
           verdict or an invalid one. *)
        let inst = Small_n.g1 ~k:3 in
        let engine = Engine.create inst in
        let model = node inst in
        let order = Instance.order inst in
        let rng = Random.State.make [| 3 |] in
        for _ = 1 to 50 do
          let faults = Bitset.create order in
          for _ = 1 to Random.State.int rng 4 do
            Bitset.add faults (Random.State.int rng order)
          done;
          let plain = Reconfig.solve inst ~faults in
          check Alcotest.bool "uncached is the plain solve" true
            (plain = Engine.solve_model ~cache:false engine model ~faults);
          match (plain, Engine.solve_model engine model ~faults) with
          | Reconfig.Pipeline _, Reconfig.Pipeline p ->
            check Alcotest.bool "cached witness valid" true
              (Pipeline.is_valid inst ~faults p.Pipeline.nodes)
          | a, b -> check Alcotest.bool "same verdict" true (a = b)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Frozen mixed node+link exhaustive results                           *)
(* ------------------------------------------------------------------ *)

let mixed_frozen_tests =
  [
    tc "mixed exhaustive on G(1,3) is frozen" (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        check Alcotest.int "universe" 26 (Fault_model.size model);
        let r = Verify.exhaustive_model ~max_failures:1_000_000 model in
        check Alcotest.int "fault sets" 2952 r.Verify.fault_sets_checked;
        check Alcotest.int "failures" 26 (List.length r.Verify.failures);
        check Alcotest.int "gave up" 0 r.Verify.gave_up;
        (* The first counterexample: processor 0 plus the 2-3 link. *)
        match r.Verify.failures with
        | first :: _ ->
          check Alcotest.string "first counterexample" "{0,1,2-3}"
            (Fault_model.describe model first.Verify.faults)
        | [] -> Alcotest.fail "expected failures");
    tc "mixed exhaustive on G(3,4) is frozen" (fun () ->
        let inst = Family.build ~n:3 ~k:4 in
        let model = Fault_model.mixed inst in
        check Alcotest.int "universe" 45 (Fault_model.size model);
        let r = Verify.exhaustive_model ~max_failures:1_000_000 model in
        check Alcotest.int "fault sets" 164221 r.Verify.fault_sets_checked;
        check Alcotest.int "failures" 1 (List.length r.Verify.failures);
        match r.Verify.failures with
        | [ f ] ->
          check Alcotest.string "counterexample" "{0,1,6,3-5}"
            (Fault_model.describe model f.Verify.faults)
        | _ -> Alcotest.fail "expected exactly one failure");
    tc "orbit reduction on mixed G(1,3) saves solver calls" (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        let symmetry = Instance.symmetry inst in
        let r =
          Verify.exhaustive_model ~max_failures:1_000_000 ~symmetry model
        in
        check Alcotest.int "fault sets covered" 2952
          r.Verify.fault_sets_checked;
        check Alcotest.int "solver calls" 137 r.Verify.solver_calls;
        (* Orbit-expanded failures must account for all 26 bad sets. *)
        check Alcotest.int "expanded failures" 26
          (List.fold_left (fun a f -> a + f.Verify.orbit) 0 r.Verify.failures));
    tc "mixed splice, from-scratch and shards agree" (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        let scratch =
          Verify.exhaustive_model ~max_failures:1_000_000 ~splice:false model
        in
        let spliced =
          Verify.exhaustive_model ~max_failures:1_000_000 ~splice:true model
        in
        check report_testable "splice vs scratch" scratch spliced;
        List.iter
          (fun domains ->
            check report_testable
              (Printf.sprintf "domains=%d" domains)
              scratch
              (Engine.Parallel.run_task ~max_failures:1_000_000 ~domains
                 ~min_items_per_domain:0
                 (Engine.Parallel.Task.exhaustive_model model)))
          [ 2; 4 ]);
    tc "colored and neighbor universes enumerate and agree in parallel"
      (fun () ->
        let inst = Small_n.g3 ~k:2 in
        List.iter
          (fun mk ->
            let model = mk inst in
            let seq = Verify.exhaustive_model ~max_failures:1_000_000 model in
            check Alcotest.int
              (Fault_model.name model ^ " checked")
              (Gdpn_graph.Combinat.count_up_to (Fault_model.size model)
                 (Fault_model.max_faults model))
              seq.Verify.fault_sets_checked;
            check report_testable
              (Fault_model.name model ^ " parallel")
              seq
              (Engine.Parallel.run_task ~max_failures:1_000_000 ~domains:3
                 ~min_items_per_domain:0
                 (Engine.Parallel.Task.exhaustive_model model)))
          [ Fault_model.colored; Fault_model.neighbor ]);
  ]

(* ------------------------------------------------------------------ *)
(* Certificates name their model                                       *)
(* ------------------------------------------------------------------ *)

let certificate_tests =
  [
    tc "node-model certificate roundtrips" (fun () ->
        List.iter
          (fun inst ->
            let cert = Testutil.certificate (Fault_model.node inst) in
            match Testutil.check_certificate inst cert with
            | Ok count ->
              check Alcotest.int inst.Instance.name
                (Gdpn_graph.Combinat.count_up_to (Instance.order inst)
                   inst.Instance.k)
                count
            | Error e -> Alcotest.fail e)
          [ Small_n.g1 ~k:2; Small_n.g3 ~k:2 ]);
    tc "certificate through the engine's cached model solver" (fun () ->
        (* The writer's witnesses swapped for the engine's cached plans:
           the checker must accept them on every orbit member.  The
           engine holds every singleton's plan first, so it splices a
           pair {a, b} from {b}'s plan, where the writer's chain splices
           from {a}'s, and some witnesses change. *)
        let inst = Small_n.g1 ~k:2 in
        let engine = Engine.create inst in
        let model = Fault_model.node inst in
        let usize = Fault_model.size model in
        for v = 0 to usize - 1 do
          ignore
            (Engine.solve_model engine model
               ~faults:(Bitset.of_list usize [ v ]))
        done;
        let written =
          Testutil.certificate ~symmetry:(Instance.symmetry inst) model
        in
        let cert =
          Testutil.rewitness ~order:(Instance.order inst) written
            (fun set ->
              match
                Engine.solve_model engine model
                  ~faults:(Bitset.of_list usize (Array.to_list set))
              with
              | Reconfig.Pipeline p -> p.Pipeline.nodes
              | Reconfig.No_pipeline | Reconfig.Gave_up ->
                Alcotest.fail "the engine found no plan for a certified set")
        in
        check Alcotest.bool "the engine spliced" true
          ((Engine.stats engine).Engine.splices > 0);
        check Alcotest.bool "some witness is the engine's own" true
          (cert <> written);
        match Testutil.check_certificate inst cert with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
    tc "tampered model certificates are rejected" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let cert = Testutil.certificate (Fault_model.node inst) in
        let reject name cert' =
          match Testutil.check_certificate inst cert' with
          | Ok _ -> Alcotest.fail (name ^ ": accepted a tampered certificate")
          | Error _ -> ()
        in
        (* Drop the last witness. *)
        let header, records =
          Testutil.certificate_records ~order:(Instance.order inst) cert
        in
        let last = List.length records - 1 in
        reject "dropped witness"
          (String.concat ""
             (header :: List.filteri (fun i _ -> i < last) records));
        (* Declare a different model so universe indexing shifts: the
           model name is a length byte then the name. *)
        let at = Testutil.find_substring cert "\004node" in
        reject "wrong model"
          (String.sub cert 0 at ^ "\005mixed"
          ^ String.sub cert (at + 5) (String.length cert - at - 5)));
    tc "mixed-model orbit certificate roundtrips" (fun () ->
        (* G(2,1) tolerates every single node or link fault, and its
           order-2 group acts on the links as well as the nodes *)
        let inst = Family.build ~n:2 ~k:1 in
        let model = Fault_model.mixed inst in
        let orbit =
          Testutil.certificate ~symmetry:(Instance.symmetry inst) model
        in
        let flat = Testutil.certificate model in
        check Alcotest.bool "orbits shrink it" true
          (String.length orbit < String.length flat);
        List.iter
          (fun cert ->
            match Testutil.check_certificate inst cert with
            | Ok count -> check Alcotest.int "every mixed set" 15 count
            | Error e -> Alcotest.fail e)
          [ orbit; flat ]);
    tc "the writer refuses an untolerated universe" (fun () ->
        (* G(1,3) mixed has genuine counterexamples, so no certificate
           exists. *)
        let inst = Family.build ~n:1 ~k:3 in
        match Testutil.certificate (Fault_model.mixed inst) with
        | _ -> Alcotest.fail "expected Failure"
        | exception Failure _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Link_faults as a wrapper over the mixed model                       *)
(* ------------------------------------------------------------------ *)

let link_wrapper_tests =
  [
    tc "survey of Small_n.g3 k=2 is frozen" (fun () ->
        let s = Link_faults.survey_exhaustive (Small_n.g3 ~k:2) in
        check Alcotest.int "sets" 326 s.Link_faults.fault_sets;
        check Alcotest.int "graceful" 325 s.Link_faults.graceful;
        check Alcotest.int "degraded" 1 s.Link_faults.degraded;
        check Alcotest.int "lost" 0 s.Link_faults.lost;
        check Alcotest.int "min processors" 3 s.Link_faults.min_processors);
    tc "solve agrees with the mixed model verdict" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let model = Fault_model.mixed inst in
        let usize = Fault_model.size model in
        for i = 0 to usize - 1 do
          for j = i + 1 to usize - 1 do
            let faults =
              List.map
                (fun idx ->
                  match Fault_model.element model idx with
                  | Fault_model.Node v -> Link_faults.Node v
                  | Fault_model.Link (u, v) -> Link_faults.Link (u, v)
                  | _ -> assert false)
                [ i; j ]
            in
            let mask = Bitset.of_list usize [ i; j ] in
            let direct = Fault_model.solve model ~faults:mask in
            match (Link_faults.solve inst ~faults, direct) with
            | Link_faults.Graceful p, Reconfig.Pipeline _ ->
              (match Fault_model.validate model ~faults:mask p.Pipeline.nodes with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e)
            | Link_faults.Graceful _, _ | _, Reconfig.Pipeline _ ->
              Alcotest.fail "wrapper and model disagree on gracefulness"
            | (Link_faults.Degraded _ | Link_faults.No_pipeline
              | Link_faults.Gave_up), _ -> ()
          done
        done);
    tc "a shared model does not change wrapper verdicts" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let model = Fault_model.mixed inst in
        let classify = function
          | Link_faults.Graceful _ -> `G
          | Link_faults.Degraded _ -> `D
          | Link_faults.No_pipeline -> `N
          | Link_faults.Gave_up -> `U
        in
        let link i =
          match Fault_model.element model (Instance.order inst + i) with
          | Fault_model.Link (u, v) -> Link_faults.Link (u, v)
          | _ -> Alcotest.fail "expected a link element"
        in
        List.iter
          (fun faults ->
            check Alcotest.bool "same class" true
              (classify (Link_faults.solve inst ~faults)
              = classify (Link_faults.solve ~model inst ~faults)))
          [
            [];
            [ Link_faults.Node 0 ];
            [ link 0 ];
            [ Link_faults.Node 4; link 1 ];
          ]);
    tc "unknown elements are rejected" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        Alcotest.check_raises "non-edge"
          (Invalid_argument
             "Link_faults.solve: not a node or edge of the instance")
          (fun () ->
            ignore
              (Link_faults.solve inst ~faults:[ Link_faults.Link (0, 999) ])));
  ]

(* ------------------------------------------------------------------ *)
(* Machine, injector and attack over a model                           *)
(* ------------------------------------------------------------------ *)

let faultsim_tests =
  [
    tc "machine over the node model mirrors the legacy machine" (fun () ->
        (* The node-only machine's remaps, frozen when it was folded into
           the model path. *)
        let inst = Small_n.g1 ~k:3 in
        let m = Faultsim.Machine.create ~model:(Fault_model.node inst) inst in
        let show = function
          | Faultsim.Machine.Remapped p ->
            "remapped " ^ String.concat "," (List.map string_of_int p.Pipeline.nodes)
          | Faultsim.Machine.Unchanged -> "unchanged"
          | Faultsim.Machine.Lost -> "lost"
        in
        List.iter
          (fun (v, expected, healthy) ->
            check Alcotest.string
              (Printf.sprintf "inject %d" v)
              expected
              (show (Faultsim.Machine.inject m v));
            check Alcotest.int "healthy" healthy
              (Faultsim.Machine.healthy_processor_count m))
          [
            (0, "remapped 6,2,3,1,9", 3);
            (0, "unchanged", 3);
            (3, "remapped 6,2,1,9", 2);
            (5, "remapped 6,2,1,9", 2);
          ]);
    tc "machine absorbs a graceful link fault without losing processors"
      (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        let m = Faultsim.Machine.create ~model inst in
        let healthy0 = Faultsim.Machine.healthy_processor_count m in
        let idx =
          match Fault_model.index_of model (Fault_model.Link (1, 2)) with
          | Some i -> i
          | None -> Alcotest.fail "1-2 should be an edge"
        in
        (match Faultsim.Machine.inject m idx with
        | Faultsim.Machine.Remapped p ->
          check Alcotest.int "all processors still used" healthy0
            (Pipeline.processor_count p)
        | Faultsim.Machine.Unchanged | Faultsim.Machine.Lost ->
          Alcotest.fail "single in-spec link fault must remap");
        check Alcotest.int "no processor died" healthy0
          (Faultsim.Machine.healthy_processor_count m);
        check Alcotest.(list int) "universe-indexed fault list" [ idx ]
          (Faultsim.Machine.faults m));
    tc "machine range-checks the universe" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let model = Fault_model.mixed inst in
        let m = Faultsim.Machine.create ~model inst in
        Alcotest.check_raises "out of range"
          (Invalid_argument "Machine.inject: node out of range") (fun () ->
            ignore (Faultsim.Machine.inject m (Fault_model.size model))));
    tc "random_model schedules draw distinct in-range universe indices"
      (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let model = Fault_model.mixed inst in
        let rng = Faultsim.Stream.Prng.create 5 in
        let schedule =
          Faultsim.Injector.random_model ~rng model ~count:6 ~rounds:20
        in
        let elts =
          List.map (fun e -> e.Faultsim.Injector.node) schedule
        in
        check Alcotest.int "count" 6 (List.length elts);
        check Alcotest.int "distinct" 6
          (List.length (List.sort_uniq compare elts));
        List.iter
          (fun e ->
            check Alcotest.bool "in range" true
              (e >= 0 && e < Fault_model.size model))
          elts);
    tc "attack with the node model reproduces the plain search" (fun () ->
        (* The node-only search's finding, frozen when it was folded into
           the model path. *)
        let inst = Small_n.g1 ~k:3 in
        let f =
          Attack.worst_case
            ~rng:(Random.State.make [| 9 |])
            ~restarts:3 ~model:(Fault_model.node inst) inst
        in
        check Alcotest.bool "frozen finding" true
          (f
          = {
              Attack.faults = [ 5; 6; 9 ];
              expansions = 5;
              outcome = `Found;
              restarts = 3;
              evaluations = 244;
            }));
    tc "attack over the mixed universe finds an in-range set" (fun () ->
        let inst = Family.build ~n:1 ~k:3 in
        let model = Fault_model.mixed inst in
        let f =
          Attack.worst_case
            ~rng:(Random.State.make [| 2 |])
            ~restarts:2 ~model inst
        in
        check Alcotest.int "set size" inst.Instance.k
          (List.length f.Attack.faults);
        List.iter
          (fun i ->
            check Alcotest.bool "in universe" true
              (i >= 0 && i < Fault_model.size model))
          f.Attack.faults);
  ]

let () =
  Alcotest.run "gdpn_fault_model"
    [
      ("node-oracle", frozen_tests);
      ("mixed-frozen", mixed_frozen_tests);
      ("certificates", certificate_tests);
      ("link-wrapper", link_wrapper_tests);
      ("faultsim", faultsim_tests);
    ]
