(* Metamorphic properties: transformations whose effect on every solver and
   verifier outcome is known exactly.  These tests catch subtle coupling
   bugs (e.g. a solver depending on node-id order for correctness rather
   than just for determinism) that example-based tests miss. *)

open Gdpn_core
module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Workload = Gdpn_faultsim.Workload
module Stage = Gdpn_faultsim.Stage

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let small_instances =
  [
    Small_n.g1 ~k:2; Small_n.g2 ~k:2; Small_n.g3 ~k:2; Small_n.g3 ~k:3;
    Special.g62 (); Special.g43 ();
    Extend.iterate (Small_n.g1 ~k:2) 1;
  ]

let random_perm rng n =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  perm

(* ------------------------------------------------------------------ *)
(* Relabeling invariance                                               *)
(* ------------------------------------------------------------------ *)

let relabel_tests =
  [
    tc "relabel validates its permutation" (fun () ->
        let inst = Small_n.g1 ~k:1 in
        Alcotest.check_raises "wrong length"
          (Invalid_argument "Instance.relabel: length") (fun () ->
            ignore (Instance.relabel inst ~perm:[| 0; 1 |]));
        Alcotest.check_raises "repeat"
          (Invalid_argument "Instance.relabel: not a permutation") (fun () ->
            ignore
              (Instance.relabel inst
                 ~perm:(Array.make (Instance.order inst) 0))));
    tc "relabeled instances are isomorphic with kind colours" (fun () ->
        let rng = Random.State.make [| 1 |] in
        List.iter
          (fun inst ->
            let perm = random_perm rng (Instance.order inst) in
            let inst' = Instance.relabel inst ~perm in
            let colour i v =
              match Instance.kind_of i v with
              | Label.Input -> 1
              | Label.Output -> 2
              | Label.Processor -> 0
            in
            check Alcotest.bool inst.Instance.name true
              (Gdpn_graph.Iso.isomorphic ~colour_a:(colour inst)
                 ~colour_b:(colour inst') inst.Instance.graph
                 inst'.Instance.graph))
          small_instances);
    tc "solver outcome class is invariant under relabeling" (fun () ->
        (* For every fault set F of size <= k: solve(G, F) succeeds iff
           solve(perm G, perm F) succeeds. *)
        let rng = Random.State.make [| 2 |] in
        List.iter
          (fun inst ->
            let order = Instance.order inst in
            let perm = random_perm rng order in
            let inst' = Instance.relabel inst ~perm in
            Combinat.iter_subsets_up_to order inst.Instance.k (fun buf len ->
                let faults = Array.to_list (Array.sub buf 0 len) in
                let faults' = List.map (fun v -> perm.(v)) faults in
                let class_of r =
                  match r with
                  | Reconfig.Pipeline _ -> `Found
                  | Reconfig.No_pipeline -> `None
                  | Reconfig.Gave_up -> `GaveUp
                in
                let a = class_of (Reconfig.solve_list inst ~faults) in
                let b = class_of (Reconfig.solve_list inst' ~faults:faults') in
                if a <> b then
                  Alcotest.failf "%s: outcome differs on {%s}"
                    inst.Instance.name
                    (String.concat "," (List.map string_of_int faults))))
          [ Small_n.g1 ~k:2; Small_n.g3 ~k:2; Special.g62 () ]);
    tc "verification verdict is invariant under relabeling" (fun () ->
        let rng = Random.State.make [| 3 |] in
        List.iter
          (fun inst ->
            let perm = random_perm rng (Instance.order inst) in
            let inst' = Instance.relabel inst ~perm in
            check Alcotest.bool inst.Instance.name
              (Verify.is_k_gd (Verify.exhaustive inst))
              (Verify.is_k_gd (Verify.exhaustive inst')))
          small_instances);
  ]

(* ------------------------------------------------------------------ *)
(* Solver cross-checks                                                 *)
(* ------------------------------------------------------------------ *)

let crosscheck_tests =
  [
    tc "constructive and generic solvers agree everywhere (small spaces)"
      (fun () ->
        List.iter
          (fun inst ->
            let order = Instance.order inst in
            Combinat.iter_subsets_up_to order inst.Instance.k (fun buf len ->
                let faults =
                  Bitset.of_list order (Array.to_list (Array.sub buf 0 len))
                in
                let found = function
                  | Reconfig.Pipeline _ -> true
                  | Reconfig.No_pipeline | Reconfig.Gave_up -> false
                in
                if
                  found (Reconfig.solve inst ~faults)
                  <> found (Reconfig.solve_generic inst ~faults)
                then Alcotest.failf "%s: solvers disagree" inst.Instance.name))
          [
            Small_n.g1 ~k:2; Small_n.g2 ~k:2;
            Extend.iterate (Small_n.g2 ~k:1) 2;
            Circulant_family.build ~n:19 ~k:4;
          ]);
    tc "serialization roundtrip preserves every verification verdict"
      (fun () ->
        List.iter
          (fun inst ->
            match Serial.of_string (Serial.to_string inst) with
            | Error e -> Alcotest.fail e
            | Ok inst' ->
              let a = Verify.exhaustive inst in
              let b = Verify.exhaustive inst' in
              check Alcotest.int inst.Instance.name
                a.Verify.fault_sets_checked b.Verify.fault_sets_checked;
              check Alcotest.bool "same verdict" (Verify.is_k_gd a)
                (Verify.is_k_gd b))
          small_instances);
    tc "merge commutes with relabeling (up to isomorphism)" (fun () ->
        let inst = Small_n.g2 ~k:2 in
        let rng = Random.State.make [| 4 |] in
        let perm = random_perm rng (Instance.order inst) in
        let a = Merge.apply inst in
        let b = Merge.apply (Instance.relabel inst ~perm) in
        let colour i v =
          match Instance.kind_of i v with
          | Label.Input -> 1
          | Label.Output -> 2
          | Label.Processor -> 0
        in
        check Alcotest.bool "isomorphic merges" true
          (Gdpn_graph.Iso.isomorphic ~colour_a:(colour a) ~colour_b:(colour b)
             a.Instance.graph b.Instance.graph));
    tc "link-fault degrade composes" (fun () ->
        let inst = Small_n.g1 ~k:3 in
        let e1 = (0, 1) and e2 = (2, 3) in
        let once = Fault_model.degrade_links inst ~links:[ e1; e2 ] in
        let twice =
          Fault_model.degrade_links
            (Fault_model.degrade_links inst ~links:[ e1 ])
            ~links:[ e2 ]
        in
        check Alcotest.bool "same graph" true
          (Graph.equal once.Instance.graph twice.Instance.graph));
  ]

(* ------------------------------------------------------------------ *)
(* Workload language                                                   *)
(* ------------------------------------------------------------------ *)

let workload_tests =
  [
    tc "presets parse" (fun () ->
        List.iter
          (fun (text, len) ->
            match Workload.parse text with
            | Ok chain -> check Alcotest.int text len (List.length chain)
            | Error e -> Alcotest.failf "%s: %s" text e)
          [ ("video", 5); ("ct", 4); ("firbank7", 7) ]);
    tc "chains parse and apply" (fun () ->
        match Workload.parse "sub2|fir3|gain0.5|quant8|rle" with
        | Error e -> Alcotest.fail e
        | Ok chain ->
          check Alcotest.int "length" 5 (List.length chain);
          let out =
            List.fold_left
              (fun acc st -> Stage.apply st acc)
              (Array.init 64 (fun i -> float_of_int i /. 64.0))
              chain
          in
          check Alcotest.bool "produces output" true (Array.length out > 0));
    tc "projection and rescale syntax" (fun () ->
        (match Workload.parse "proj4|rescale3:4|iir" with
        | Ok [ Stage.Projection_sum 4; Stage.Rescale { num = 3; den = 4 };
               Stage.Iir _ ] -> ()
        | Ok _ -> Alcotest.fail "wrong parse"
        | Error e -> Alcotest.fail e));
    tc "errors name the offending token" (fun () ->
        List.iter
          (fun (text, frag) ->
            match Workload.parse text with
            | Ok _ -> Alcotest.failf "%S should not parse" text
            | Error e ->
              check Alcotest.bool
                (Printf.sprintf "%S error mentions %S" text frag)
                true
                (Testutil.contains_substring e frag))
          [
            ("bogus", "bogus"); ("fir0", "fir0"); ("sub0", "sub0");
            ("rescale3", "rescale3"); ("quant1", "quant1"); ("", "empty");
            ("firbankx", "firbankx"); ("gainq", "gainq");
          ]);
    tc "median and dct syntax" (fun () ->
        (match Workload.parse "median5|dct8" with
        | Ok [ Stage.Median 5; Stage.Dct 8 ] -> ()
        | Ok _ -> Alcotest.fail "wrong parse"
        | Error e -> Alcotest.fail e);
        match Workload.parse "median4" with
        | Ok _ -> Alcotest.fail "even median must be rejected"
        | Error _ -> ());
    tc "to_string . parse is stable" (fun () ->
        List.iter
          (fun text ->
            match Workload.parse text with
            | Error e -> Alcotest.fail e
            | Ok chain -> (
              let rendered = Workload.to_string chain in
              match Workload.parse rendered with
              | Error e -> Alcotest.failf "re-parse of %S: %s" rendered e
              | Ok chain' ->
                check Alcotest.string text rendered (Workload.to_string chain')))
          [ "sub2|fir3|rle"; "proj8|iir|rescale1:2|gain0.125"; "quant16" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render_tests =
  [
    tc "adjacency lists every node once" (fun () ->
        let inst = Small_n.g1 ~k:1 in
        let text = Render.adjacency inst in
        check Alcotest.int "lines" (Instance.order inst)
          (List.length
             (List.filter (fun l -> l <> "")
                (String.split_on_char '\n' text))));
    tc "embedding spells out terminal kinds" (fun () ->
        let inst = Small_n.g1 ~k:1 in
        match Reconfig.solve_list inst ~faults:[] with
        | Reconfig.Pipeline p ->
          let text = Render.embedding inst p in
          check Alcotest.bool "input marked" true
            (Testutil.contains_substring text "in(");
          check Alcotest.bool "output marked" true
            (Testutil.contains_substring text "out(")
        | _ -> Alcotest.fail "setup");
    tc "ring view covers all labels and marks faults" (fun () ->
        let inst = Circulant_family.build ~n:22 ~k:4 in
        let text = Render.ring ~faults:[ 3 ] inst in
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
        in
        (* header + one line per ring label (m = 16) *)
        check Alcotest.int "lines" 17 (List.length lines);
        check Alcotest.bool "fault marked" true
          (Testutil.contains_substring text "3:X"));
    tc "ring view rejects non-circulant instances" (fun () ->
        Alcotest.check_raises "generic"
          (Invalid_argument "Render.ring: not a circulant-family instance")
          (fun () -> ignore (Render.ring (Small_n.g1 ~k:1))));
  ]

(* ------------------------------------------------------------------ *)
(* Correlated fault schedules                                          *)
(* ------------------------------------------------------------------ *)

let schedule_tests =
  let module Injector = Gdpn_faultsim.Injector in
  let module Stream = Gdpn_faultsim.Stream in
  [
    tc "geometric schedules respect cap, range, distinctness" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let rng = Stream.Prng.create 5 in
        let s =
          Injector.geometric ~rng inst ~rate:0.4 ~rounds:100 ~max_count:2
        in
        check Alcotest.bool "capped" true (List.length s <= 2);
        let nodes = List.map (fun e -> e.Injector.node) s in
        check Alcotest.int "distinct" (List.length nodes)
          (List.length (List.sort_uniq compare nodes)));
    tc "geometric with rate 0 produces nothing" (fun () ->
        let inst = Family.build ~n:4 ~k:1 in
        let rng = Stream.Prng.create 6 in
        check Alcotest.int "empty" 0
          (List.length
             (Injector.geometric ~rng inst ~rate:0.0 ~rounds:50 ~max_count:5)));
    tc "geometric validates rate" (fun () ->
        let inst = Family.build ~n:4 ~k:1 in
        let rng = Stream.Prng.create 7 in
        Alcotest.check_raises "rate"
          (Invalid_argument "Injector.geometric: rate must be in [0, 1]")
          (fun () ->
            ignore
              (Injector.geometric ~rng inst ~rate:1.5 ~rounds:10 ~max_count:1)));
    tc "clustered faults are near the centre and all processors" (fun () ->
        let inst = Circulant_family.build ~n:22 ~k:4 in
        let rng = Stream.Prng.create 8 in
        let s = Injector.clustered ~rng inst ~count:4 ~at:3 ~spread:3 in
        check Alcotest.int "count" 4 (List.length s);
        List.iter
          (fun ev ->
            check Alcotest.bool "processor" true
              (Label.equal
                 (Instance.kind_of inst ev.Injector.node)
                 Label.Processor);
            check Alcotest.int "round" 3 ev.Injector.round)
          s);
    tc "clustered burst within spec is tolerated" (fun () ->
        let inst = Circulant_family.build ~n:22 ~k:4 in
        let rng = Stream.Prng.create 9 in
        let s = Injector.clustered ~rng inst ~count:4 ~at:0 ~spread:2 in
        let faults = List.map (fun e -> e.Injector.node) s in
        match Reconfig.solve_list inst ~faults with
        | Reconfig.Pipeline _ -> ()
        | _ -> Alcotest.fail "in-spec clustered burst must be tolerated");
  ]

(* ------------------------------------------------------------------ *)
(* Parser fuzzing                                                      *)
(* ------------------------------------------------------------------ *)

let fuzz_props =
  let open QCheck in
  [
    Test.make ~name:"Serial.of_string never raises on arbitrary text"
      ~count:500 string (fun text ->
        match Serial.of_string text with Ok _ | Error _ -> true);
    Test.make ~name:"Serial.of_string never raises on format-shaped text"
      ~count:500
      (list (oneofl [ "gdpn 1"; "n 2"; "k 1"; "kinds PPII"; "edge 0 1";
                      "edge 1 0"; "name x"; "junk"; ""; "# c"; "kinds QQ";
                      "edge a b"; "n -3" ]))
      (fun lines ->
        match Serial.of_string (String.concat "\n" lines) with
        | Ok _ | Error _ -> true);
    Test.make ~name:"Workload.parse never raises" ~count:500 string
      (fun text -> match Workload.parse text with Ok _ | Error _ -> true);
    Test.make ~name:"Certify.check never raises on arbitrary text" ~count:300
      string (fun text ->
        match Testutil.check_certificate (Small_n.g1 ~k:1) text with
        | Ok _ | Error _ -> true);
    (let inst = Small_n.g1 ~k:1 in
     let header, records =
       Testutil.certificate_records ~order:(Instance.order inst)
         (Testutil.certificate ~symmetry:(Instance.symmetry inst)
            (Fault_model.node inst))
     in
     Test.make
       ~name:"Certify.check never raises on random bytes after a valid header"
       ~count:300
       (pair (int_bound (List.length records)) string)
       (fun (kept, junk) ->
         let prefix = List.filteri (fun i _ -> i < kept) records in
         match
           Testutil.check_certificate inst
             (String.concat "" ((header :: prefix) @ [ junk ]))
         with
         | Ok _ -> junk = "" && kept = List.length records
         | Error _ -> true));
  ]

let () =
  Alcotest.run "gdpn_metamorphic"
    [
      ("relabel", relabel_tests);
      ("crosscheck", crosscheck_tests);
      ("workload", workload_tests);
      ("render", render_tests);
      ("schedules", schedule_tests);
      ("fuzz", List.map QCheck_alcotest.to_alcotest fuzz_props);
    ]
