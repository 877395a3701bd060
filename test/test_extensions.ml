(* Tests for the extension features beyond the paper's core results:
   isomorphism (gdpn_graph), parallel verification, link faults (E13),
   incremental repair, certificates and the adversarial fault-set
   search. *)

open Gdpn_core
module Graph = Gdpn_graph.Graph
module Builder = Gdpn_graph.Builder
module Bitset = Gdpn_graph.Bitset
module Iso = Gdpn_graph.Iso
module Machine = Gdpn_faultsim.Machine
module Engine = Gdpn_engine.Engine

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

(* ------------------------------------------------------------------ *)
(* Isomorphism                                                         *)
(* ------------------------------------------------------------------ *)

let iso_tests =
  [
    tc "cycle is isomorphic to a relabeled cycle" (fun () ->
        let a = Builder.cycle 6 in
        let b =
          Graph.of_edges 6 [ (0, 2); (2, 4); (4, 1); (1, 3); (3, 5); (5, 0) ]
        in
        check Alcotest.bool "isomorphic" true (Iso.isomorphic a b));
    tc "cycle vs path: not isomorphic" (fun () ->
        check Alcotest.bool "different" false
          (Iso.isomorphic (Builder.cycle 6) (Builder.path 6)));
    tc "K4 minus perfect matching is the 4-cycle" (fun () ->
        check Alcotest.bool "same graph" true
          (Iso.isomorphic (Builder.clique_minus_matching 4) (Builder.cycle 4)));
    tc "same degree sequence, different graphs" (fun () ->
        (* C6 and two triangles: both 2-regular on 6 nodes. *)
        let two_triangles =
          Graph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]
        in
        check Alcotest.bool "not isomorphic" false
          (Iso.isomorphic (Builder.cycle 6) two_triangles));
    tc "witness mapping is a real isomorphism" (fun () ->
        let a = Builder.circulant 8 [ 1; 4 ] in
        let b = Builder.circulant 8 [ 3; 4 ] in
        (* offsets {1,4} and {3,4} on 8 nodes: 3 = 3*1 mod 8, multiplier 3
           is invertible, so these are isomorphic. *)
        match Iso.find_isomorphism a b with
        | None -> Alcotest.fail "expected isomorphism"
        | Some m ->
          for u = 0 to 7 do
            for v = 0 to 7 do
              if u <> v then
                check Alcotest.bool "edge preserved"
                  (Graph.adjacent a u v)
                  (Graph.adjacent b m.(u) m.(v))
            done
          done);
    tc "colours constrain the mapping" (fun () ->
        let a = Builder.path 3 and b = Builder.path 3 in
        (* Colour a's endpoints 1 and middle 0; in b, colour node 0 middle:
           impossible to map. *)
        let colour_a v = if v = 1 then 0 else 1 in
        let colour_b v = if v = 0 then 0 else 1 in
        check Alcotest.bool "colour clash" false
          (Iso.isomorphic ~colour_a ~colour_b a b);
        check Alcotest.bool "consistent colours" true
          (Iso.isomorphic ~colour_a ~colour_b:colour_a a b));
    tc "paper's remark: ext(G(1,1)) is the n=3 construction" (fun () ->
        (* §3.3: "applying Lemma 3.6 to G(1,1) gives a graph G(3,1), which
           is an example of our general construction for n = 3". *)
        let a = Extend.apply (Small_n.g1 ~k:1) in
        let b = Small_n.g3 ~k:1 in
        let colour inst v =
          match Instance.kind_of inst v with
          | Label.Input -> 1
          | Label.Output -> 2
          | Label.Processor -> 0
        in
        check Alcotest.bool "labeled-isomorphic" true
          (Iso.isomorphic ~colour_a:(colour a) ~colour_b:(colour b)
             a.Instance.graph b.Instance.graph));
    tc "certificate buckets isomorphic graphs together" (fun () ->
        let a = Builder.cycle 7 in
        let b =
          Graph.of_edges 7
            [ (0, 3); (3, 6); (6, 2); (2, 5); (5, 1); (1, 4); (4, 0) ]
        in
        check Alcotest.string "same certificate" (Iso.certificate a)
          (Iso.certificate b);
        check Alcotest.bool "different from path" true
          (Iso.certificate a <> Iso.certificate (Builder.path 7)));
  ]

let iso_props =
  let open QCheck in
  let graph_gen =
    Gen.(
      pair (int_range 2 10) int >|= fun (n, seed) ->
      let rng = Random.State.make [| seed; 3 |] in
      let b = Graph.builder n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.4 then Graph.add_edge b u v
        done
      done;
      Graph.freeze b)
  in
  let arb = QCheck.make ~print:(Fmt.to_to_string Graph.pp) graph_gen in
  [
    Test.make ~name:"every graph is isomorphic to a random relabeling"
      ~count:150
      (pair arb int)
      (fun (g, seed) ->
        let n = Graph.order g in
        let perm = Array.init n Fun.id in
        let rng = Random.State.make [| seed; 4 |] in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        let h =
          Graph.of_edges n
            (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))
        in
        Iso.isomorphic g h);
    Test.make ~name:"adding one edge breaks isomorphism" ~count:100 arb
      (fun g ->
        let n = Graph.order g in
        QCheck.assume (Graph.size g < n * (n - 1) / 2);
        (* find a non-edge *)
        let extra = ref None in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if !extra = None && not (Graph.adjacent g u v) then
              extra := Some (u, v)
          done
        done;
        match !extra with
        | None -> true
        | Some e -> not (Iso.isomorphic g (Graph.of_edges n (e :: Graph.edges g))));
  ]

(* ------------------------------------------------------------------ *)
(* Parallel verification                                               *)
(* ------------------------------------------------------------------ *)

let parallel_tests =
  [
    tc_slow "parallel exhaustive matches serial on sound instances" (fun () ->
        List.iter
          (fun inst ->
            let serial = Verify.exhaustive inst in
            let parallel =
              Engine.Parallel.verify_exhaustive ~domains:3
                ~min_items_per_domain:0 inst
            in
            check Alcotest.int
              (inst.Instance.name ^ ": same count")
              serial.Verify.fault_sets_checked
              parallel.Verify.fault_sets_checked;
            check Alcotest.bool "both clean" true
              (Verify.is_k_gd serial && Verify.is_k_gd parallel))
          [ Small_n.g1 ~k:3; Small_n.g3 ~k:2; Special.g62 () ]);
    tc "parallel finds counterexamples in broken graphs" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let g = inst.Instance.graph in
        let b = Graph.builder (Graph.order g) in
        List.iter
          (fun (u, v) -> if (u, v) <> (0, 1) then Graph.add_edge b u v)
          (Graph.edges g);
        let broken =
          Instance.make ~graph:(Graph.freeze b)
            ~kind:(Array.init (Instance.order inst) (Instance.kind_of inst))
            ~n:1 ~k:2 ~name:"broken" ~strategy:Instance.Generic
        in
        let r =
          Engine.Parallel.verify_exhaustive ~domains:2 ~min_items_per_domain:0
            broken
        in
        check Alcotest.bool "not k-GD" false (Verify.is_k_gd r));
    tc "single domain degenerates to serial behaviour" (fun () ->
        let inst = Small_n.g2 ~k:2 in
        let r = Engine.Parallel.verify_exhaustive ~domains:1 inst in
        check Alcotest.int "count"
          (Gdpn_graph.Combinat.count_up_to (Instance.order inst) 2)
          r.Verify.fault_sets_checked);
    tc_slow "parallel partition covers the G(22,4) space exactly" (fun () ->
        (* The unit partition (one shallow unit plus one DFS subtree per
           size-2 prefix) is the intricate part; check it against the
           analytic count on a 66,712-set space. *)
        let inst = Circulant_family.build ~n:22 ~k:4 in
        let r =
          Engine.Parallel.verify_exhaustive ~domains:4 ~min_items_per_domain:0
            inst
        in
        check Alcotest.int "count"
          (Gdpn_graph.Combinat.count_up_to (Instance.order inst) 4)
          r.Verify.fault_sets_checked;
        check Alcotest.bool "clean" true (Verify.is_k_gd r));
  ]

(* ------------------------------------------------------------------ *)
(* Link faults (E13)                                                   *)
(* ------------------------------------------------------------------ *)

let link_tests =
  [
    tc "degrade removes exactly the given edges" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let weak = Fault_model.degrade_links inst ~links:[ (0, 1) ] in
        check Alcotest.bool "edge gone" false
          (Graph.adjacent weak.Instance.graph 0 1);
        check Alcotest.int "one edge fewer"
          (Graph.size inst.Instance.graph - 1)
          (Graph.size weak.Instance.graph);
        Alcotest.check_raises "unknown edge"
          (Invalid_argument
             "Fault_model.degrade_links: not an edge of the instance")
          (fun () ->
            ignore (Fault_model.degrade_links inst ~links:[ (0, 8) ])));
    tc "no faults: graceful" (fun () ->
        match Link_faults.solve (Small_n.g1 ~k:2) ~faults:[] with
        | Link_faults.Graceful _ -> ()
        | _ -> Alcotest.fail "expected graceful");
    tc "node faults flow through unchanged" (fun () ->
        match
          Link_faults.solve (Small_n.g2 ~k:2) ~faults:[ Link_faults.Node 0 ]
        with
        | Link_faults.Graceful p ->
          check Alcotest.int "one fewer processor" 3
            (Pipeline.processor_count p)
        | _ -> Alcotest.fail "expected graceful");
    tc "a forced-degraded case in G(1,2)" (fun () ->
        (* In G(1,2) the two link faults (0,1),(0,2) isolate processor 0
           from the other processors; terminals cannot bridge, so the only
           pipelines strand a healthy processor. *)
        let inst = Small_n.g1 ~k:2 in
        match
          Link_faults.solve inst
            ~faults:[ Link_faults.Link (0, 1); Link_faults.Link (0, 2) ]
        with
        | Link_faults.Degraded p ->
          check Alcotest.bool "at least n processors" true
            (Pipeline.processor_count p >= 1)
        | Link_faults.Graceful _ ->
          Alcotest.fail "processor 0 is unreachable: cannot be graceful"
        | _ -> Alcotest.fail "must still provide a pipeline");
    tc_slow "survey: in-spec mixed faults never lose the stream" (fun () ->
        List.iter
          (fun inst ->
            let s = Link_faults.survey_exhaustive inst in
            check Alcotest.int (inst.Instance.name ^ ": lost") 0
              s.Link_faults.lost;
            check Alcotest.bool "length-n guarantee holds" true
              (s.Link_faults.min_processors >= inst.Instance.n);
            check Alcotest.bool "graceful dominates" true
              (s.Link_faults.graceful > 9 * s.Link_faults.fault_sets / 10))
          [ Small_n.g1 ~k:2; Small_n.g2 ~k:2; Small_n.g3 ~k:2; Special.g62 () ]);
    tc_slow "G(2,2) is fully gracefully degradable under mixed faults"
      (fun () ->
        let s = Link_faults.survey_exhaustive (Small_n.g2 ~k:2) in
        check Alcotest.int "no degraded cases" 0 s.Link_faults.degraded);
  ]

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)
(* ------------------------------------------------------------------ *)

let repair_tests =
  [
    tc "fault off the pipeline leaves it unchanged" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let faults = Bitset.create (Instance.order inst) in
        let p =
          match Reconfig.solve inst ~faults with
          | Reconfig.Pipeline p -> p
          | _ -> Alcotest.fail "setup"
        in
        (* An input terminal not on the pipeline. *)
        let unused =
          List.find
            (fun t -> not (List.mem t p.Pipeline.nodes))
            (Instance.inputs inst)
        in
        Bitset.add faults unused;
        match Repair.patch inst ~current:p ~faults ~failed:unused with
        | Some (`Unchanged _) -> ()
        | _ -> Alcotest.fail "expected Unchanged");
    tc "internal processor is spliced out" (fun () ->
        let inst = Small_n.g1 ~k:3 in
        let faults = Bitset.create (Instance.order inst) in
        let p =
          match Reconfig.solve inst ~faults with
          | Reconfig.Pipeline p -> p
          | _ -> Alcotest.fail "setup"
        in
        let p = Pipeline.normalise inst p in
        (* Second processor on the path (internal; clique neighbours). *)
        let internal = List.nth p.Pipeline.nodes 2 in
        Bitset.add faults internal;
        match Repair.patch inst ~current:p ~faults ~failed:internal with
        | Some (`Spliced q) ->
          check Alcotest.bool "valid" true
            (Pipeline.is_valid inst ~faults q.Pipeline.nodes);
          check Alcotest.int "one fewer" 3 (Pipeline.processor_count q)
        | _ -> Alcotest.fail "expected a splice");
    tc "endpoint terminal failure is swapped or resolved, never lost"
      (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let faults = Bitset.create (Instance.order inst) in
        let p =
          match Reconfig.solve inst ~faults with
          | Reconfig.Pipeline p -> Pipeline.normalise inst p
          | _ -> Alcotest.fail "setup"
        in
        let t_in = List.hd p.Pipeline.nodes in
        Bitset.add faults t_in;
        let valid q =
          check Alcotest.bool "valid" true
            (Pipeline.is_valid inst ~faults q.Pipeline.nodes)
        in
        match Repair.patch inst ~current:p ~faults ~failed:t_in with
        | Some (`Unchanged _) -> Alcotest.fail "terminal was on the pipeline"
        | Some (`Spliced q) -> valid q
        | None -> (
          match Reconfig.solve inst ~faults with
          | Reconfig.Pipeline q -> valid q
          | Reconfig.No_pipeline | Reconfig.Gave_up ->
            Alcotest.fail "in-spec fault cannot lose the pipeline"));
    tc "repair output always validates across a fault storm" (fun () ->
        let inst = Family.build ~n:12 ~k:2 in
        let order = Instance.order inst in
        let rng = Random.State.make [| 31 |] in
        for _ = 1 to 50 do
          let faults = Bitset.create order in
          let p0 =
            match Reconfig.solve inst ~faults with
            | Reconfig.Pipeline p -> p
            | _ -> Alcotest.fail "setup"
          in
          (* Two sequential faults repaired one at a time. *)
          let current = ref p0 in
          let pick () = Random.State.int rng order in
          let inject_one () =
            let rec fresh () =
              let v = pick () in
              if Bitset.mem faults v then fresh () else v
            in
            let v = fresh () in
            Bitset.add faults v;
            let repaired =
              match Repair.patch inst ~current:!current ~faults ~failed:v with
              | Some (`Unchanged p | `Spliced p) -> Reconfig.Pipeline p
              | None -> Reconfig.solve inst ~faults
            in
            match repaired with
            | Reconfig.Pipeline p ->
              check Alcotest.bool "valid after repair" true
                (Pipeline.is_valid inst ~faults p.Pipeline.nodes);
              current := p
            | Reconfig.No_pipeline | Reconfig.Gave_up ->
              Alcotest.fail "in-spec faults cannot lose"
          in
          inject_one ();
          inject_one ()
        done);
    tc "patch absorbs 17 of G(13,3)'s 24 single faults" (fun () ->
        (* E14's count: a single fault on the fault-free pipeline is a
           local repair exactly when a patch answers it, no search. *)
        let inst = Family.build ~n:13 ~k:3 in
        let order = Instance.order inst in
        let pipeline =
          match Reconfig.solve_list inst ~faults:[] with
          | Reconfig.Pipeline p -> Pipeline.normalise inst p
          | _ -> Alcotest.fail "setup"
        in
        let singles =
          Instance.processors inst @ Instance.inputs inst
          @ Instance.outputs inst
        in
        let absorbed =
          List.filter
            (fun v ->
              Repair.patch inst ~current:pipeline
                ~faults:(Bitset.of_list order [ v ]) ~failed:v
              <> None)
            singles
        in
        check Alcotest.int "single faults" 24 (List.length singles);
        check Alcotest.int "absorbed by a patch" 17 (List.length absorbed));
    tc "machine counts local repairs" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let m = Machine.create inst in
        (* Fail a terminal that is not on the embedded pipeline: always a
           local repair. *)
        let p = Option.get (Machine.pipeline m) in
        let unused =
          List.find
            (fun t -> not (List.mem t p.Pipeline.nodes))
            (Instance.inputs inst @ Instance.outputs inst)
        in
        ignore (Machine.inject m unused);
        check Alcotest.int "one local repair" 1 (Machine.local_repair_count m));
  ]

(* ------------------------------------------------------------------ *)
(* Certificates                                                        *)
(* ------------------------------------------------------------------ *)

let certify_tests =
  let flat inst = Testutil.certificate (Fault_model.node inst) in
  let rejects label inst text =
    match Testutil.check_certificate inst text with
    | Ok _ -> Alcotest.failf "%s must be rejected" label
    | Error e -> e
  in
  [
    tc "generate then check succeeds and counts the space" (fun () ->
        List.iter
          (fun inst ->
            match Testutil.check_certificate inst (flat inst) with
            | Ok n ->
              check Alcotest.int inst.Instance.name
                (Gdpn_graph.Combinat.count_up_to (Instance.order inst)
                   inst.Instance.k)
                n
            | Error e -> Alcotest.failf "%s: %s" inst.Instance.name e)
          [ Small_n.g1 ~k:1; Small_n.g2 ~k:2; Small_n.g3 ~k:2 ]);
    tc "tampered witnesses are rejected" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let cert = flat inst in
        (* Swap the last two nodes of the last witness: its output
           terminal moves inside the pipeline. *)
        let n = String.length cert in
        let bad =
          String.mapi
            (fun i c ->
              if i = n - 1 then cert.[n - 2]
              else if i = n - 2 then cert.[n - 1]
              else c)
            cert
        in
        ignore (rejects "a swapped witness" inst bad));
    tc "certificates pin the instance" (fun () ->
        let e =
          rejects "a wrong instance" (Small_n.g2 ~k:2) (flat (Small_n.g1 ~k:2))
        in
        check Alcotest.bool "names the mismatch" true
          (Testutil.contains_substring e "different instance"));
    tc "truncated and malformed certificates are rejected" (fun () ->
        let inst = Small_n.g1 ~k:1 in
        let cert = flat inst in
        let header, _ =
          Testutil.certificate_records ~order:(Instance.order inst) cert
        in
        let h = String.length header in
        List.iter
          (fun text -> ignore (rejects (Printf.sprintf "%S" text) inst text))
          [
            "";
            "gdpn-cert 5";
            "gdpn-cert 5\n";
            "nonsense\nlines\nhere\nand more";
            (* the last witness cut short, one byte too many *)
            String.sub cert 0 (String.length cert - 1);
            cert ^ "\000";
            (* the first record's length, 0, padded to two bytes *)
            String.sub cert 0 h ^ "\128" ^ String.sub cert h (String.length cert - h);
          ]);
    tc "a non-k-GD instance cannot be certified" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let g = inst.Instance.graph in
        let b = Graph.builder (Graph.order g) in
        List.iter
          (fun (u, v) -> if (u, v) <> (0, 1) then Graph.add_edge b u v)
          (Graph.edges g);
        let broken =
          Instance.make ~graph:(Graph.freeze b)
            ~kind:(Array.init (Instance.order inst) (Instance.kind_of inst))
            ~n:1 ~k:2 ~name:"broken" ~strategy:Instance.Generic
        in
        match flat broken with
        | (_ : string) -> Alcotest.fail "expected Failure"
        | exception Failure _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Adversarial fault-set search                                        *)
(* ------------------------------------------------------------------ *)

let attack_tests =
  [
    tc "expansion counter reports work" (fun () ->
        let inst = Small_n.g3 ~k:3 in
        let expansions = ref 0 in
        let faults = Bitset.create (Instance.order inst) in
        (match Reconfig.solve_generic ~expansions inst ~faults with
        | Reconfig.Pipeline _ -> ()
        | _ -> Alcotest.fail "fault-free solve");
        check Alcotest.bool "counted" true (!expansions > 0));
    tc "random baseline returns sane statistics" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let mean, worst =
          Attack.random_baseline
            ~rng:(Random.State.make [| 1 |])
            ~trials:30 inst
        in
        check Alcotest.bool "mean <= max" true (mean <= worst);
        check Alcotest.bool "positive" true (mean > 0));
    tc_slow "hill climbing finds at-least-as-bad sets as random" (fun () ->
        let inst = Circulant_family.build ~n:19 ~k:4 in
        let rng = Random.State.make [| 2 |] in
        let mean, _ = Attack.random_baseline ~rng ~trials:20 ~budget:20_000 inst in
        let f = Attack.worst_case ~rng ~restarts:1 ~budget:20_000 inst in
        check Alcotest.int "fault set size" 4 (List.length f.Attack.faults);
        check Alcotest.bool "worse than the average" true
          (f.Attack.expansions >= mean);
        check Alcotest.bool "evaluations counted" true
          (f.Attack.evaluations > 0);
        (* Whatever the adversary found, the strategy solver handles it. *)
        match Reconfig.solve_list inst ~faults:f.Attack.faults with
        | Reconfig.Pipeline _ -> ()
        | _ -> Alcotest.fail "in-spec adversarial set must be tolerated");
  ]

let () =
  Alcotest.run "gdpn_extensions"
    [
      ("iso", iso_tests);
      ("iso-props", List.map QCheck_alcotest.to_alcotest iso_props);
      ("parallel-verify", parallel_tests);
      ("link-faults", link_tests);
      ("repair", repair_tests);
      ("certify", certify_tests);
      ("attack", attack_tests);
    ]
