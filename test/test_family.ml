(* The family-level reproduction tests: Theorems 3.13 / 3.15 / 3.16 degree
   tables with exhaustive k-GD verification (E5-E7), the special solutions
   (Figures 10-13), the §3.4 circulant family (E9, Figures 14-15) and the
   merged-terminal model (E11). *)

open Gdpn_core
module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

let assert_k_gd_exhaustive name inst =
  let r = Verify.exhaustive inst in
  if not (Verify.is_k_gd r) then
    Alcotest.failf "%s is not k-GD: %s" name
      (Format.asprintf "%a" Verify.pp_report r)

let assert_k_gd_sampled name ~seed ~trials inst =
  let r = Verify.sampled ~rng:(Random.State.make [| seed |]) ~trials inst in
  if not (Verify.is_k_gd r) then
    Alcotest.failf "%s failed sampled verification: %s" name
      (Format.asprintf "%a" Verify.pp_report r)

(* ------------------------------------------------------------------ *)
(* Theorems 3.13, 3.15, 3.16 (E5, E6, E7)                              *)
(* ------------------------------------------------------------------ *)

let theorem_table k n_max =
  tc_slow
    (Printf.sprintf "k=%d: degrees match the theorem and every instance is \
                     k-GD (n=1..%d)" k n_max)
    (fun () ->
      for n = 1 to n_max do
        let inst = Family.build ~n ~k in
        check Alcotest.bool
          (Printf.sprintf "standard n=%d" n)
          true (Instance.is_standard inst);
        check Alcotest.int
          (Printf.sprintf "degree n=%d" n)
          (Option.get (Family.claimed_degree ~n ~k))
          (Instance.max_processor_degree inst);
        check Alcotest.bool
          (Printf.sprintf "degree-optimal n=%d" n)
          true (Bounds.is_degree_optimal inst);
        assert_k_gd_exhaustive (Printf.sprintf "G(%d,%d)" n k) inst
      done)

let family_tests =
  [
    theorem_table 1 16;
    theorem_table 2 14;
    theorem_table 3 14;
    tc "theorem 3.13 degree pattern: k+2 odd n, k+3 even n" (fun () ->
        for n = 1 to 20 do
          let expected = if n mod 2 = 1 then 3 else 4 in
          check Alcotest.int
            (Printf.sprintf "n=%d" n)
            expected
            (Instance.max_processor_degree (Family.build ~n ~k:1))
        done);
    tc "theorem 3.15 degree pattern: k+3 only at n in {2,3,5}" (fun () ->
        for n = 1 to 20 do
          let expected = if n = 2 || n = 3 || n = 5 then 5 else 4 in
          check Alcotest.int
            (Printf.sprintf "n=%d" n)
            expected
            (Instance.max_processor_degree (Family.build ~n ~k:2))
        done);
    tc "theorem 3.16 degree pattern: k+2 odd n (except 3), k+3 even n"
      (fun () ->
        for n = 1 to 20 do
          let expected = if n mod 2 = 1 && n <> 3 then 5 else 6 in
          check Alcotest.int
            (Printf.sprintf "n=%d" n)
            expected
            (Instance.max_processor_degree (Family.build ~n ~k:3))
        done);
    tc "corollary 3.8: degree k+2 at n = (k+1)l + 1" (fun () ->
        List.iter
          (fun (k, l) ->
            let n = ((k + 1) * l) + 1 in
            let inst = Family.build ~n ~k in
            check Alcotest.int
              (Printf.sprintf "k=%d l=%d" k l)
              (k + 2)
              (Instance.max_processor_degree inst))
          [ (1, 3); (2, 3); (3, 2); (4, 2); (5, 1); (6, 1) ]);
    tc "family rejects invalid parameters" (fun () ->
        Alcotest.check_raises "n=0"
          (Invalid_argument "Family.build: n must be >= 1") (fun () ->
            ignore (Family.build ~n:0 ~k:1));
        Alcotest.check_raises "k=0"
          (Invalid_argument "Family.build: k must be >= 1") (fun () ->
            ignore (Family.build ~n:1 ~k:0)));
    tc "k >= 4 gap: supported residues and the Unsupported exception"
      (fun () ->
        (* k=4: step 5.  n=6 ≡ 1, n=7 ≡ 2, n=8 ≡ 3 are supported; n=9 ≡ 4
           and n=10 ≡ 0 are not (below circulant threshold 18). *)
        check Alcotest.bool "n=6" true (Family.supported ~n:6 ~k:4);
        check Alcotest.bool "n=7" true (Family.supported ~n:7 ~k:4);
        check Alcotest.bool "n=8" true (Family.supported ~n:8 ~k:4);
        check Alcotest.bool "n=9" false (Family.supported ~n:9 ~k:4);
        check Alcotest.bool "n=10" false (Family.supported ~n:10 ~k:4);
        check Alcotest.bool "n=18 circulant" true (Family.supported ~n:18 ~k:4));
    tc_slow "k=4 gap extensions are k-GD (n=6: ext G(1,4))" (fun () ->
        assert_k_gd_exhaustive "ext G(1,4)" (Family.build ~n:6 ~k:4));
    tc_slow "k=4..6: the small-n constructions stay exhaustively k-GD"
      (fun () ->
        List.iter
          (fun (n, k) ->
            assert_k_gd_exhaustive
              (Printf.sprintf "G(%d,%d)" n k)
              (Family.build ~n ~k))
          [ (1, 5); (2, 5); (3, 5); (1, 6) ]);
    tc_slow "k=4: every gap residue's extension is exhaustively k-GD"
      (fun () ->
        List.iter
          (fun n ->
            assert_k_gd_exhaustive
              (Printf.sprintf "gap G(%d,4)" n)
              (Family.build ~n ~k:4))
          [ 7; 8 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Special solutions (E6/E7, Figures 10-13)                            *)
(* ------------------------------------------------------------------ *)

let special_structure name inst ~n ~k ~degree =
  tc (name ^ ": structure") (fun () ->
      check Alcotest.int "n" n inst.Instance.n;
      check Alcotest.int "k" k inst.Instance.k;
      check Alcotest.bool "standard" true (Instance.is_standard inst);
      check Alcotest.int "max processor degree" degree
        (Instance.max_processor_degree inst);
      check Alcotest.bool "degree-optimal" true (Bounds.is_degree_optimal inst);
      check Alcotest.bool "L3.1" true (Bounds.lemma_3_1_holds inst);
      check Alcotest.bool "L3.4" true (Bounds.lemma_3_4_holds inst))

let special_tests =
  [
    special_structure "G(6,2)" (Special.g62 ()) ~n:6 ~k:2 ~degree:4;
    special_structure "G(8,2)" (Special.g82 ()) ~n:8 ~k:2 ~degree:4;
    special_structure "G(7,3)" (Special.g73 ()) ~n:7 ~k:3 ~degree:5;
    special_structure "G(4,3)" (Special.g43 ()) ~n:4 ~k:3 ~degree:6;
    tc_slow "G(6,2) exhaustively 2-GD" (fun () ->
        assert_k_gd_exhaustive "G(6,2)" (Special.g62 ()));
    tc_slow "G(8,2) exhaustively 2-GD" (fun () ->
        assert_k_gd_exhaustive "G(8,2)" (Special.g82 ()));
    tc_slow "G(7,3) exhaustively 3-GD" (fun () ->
        assert_k_gd_exhaustive "G(7,3)" (Special.g73 ()));
    tc_slow "G(4,3) exhaustively 3-GD" (fun () ->
        assert_k_gd_exhaustive "G(4,3)" (Special.g43 ()));
    tc "G(7,3): every processor has degree exactly k+2" (fun () ->
        let inst = Special.g73 () in
        List.iter
          (fun p ->
            check Alcotest.int
              (Printf.sprintf "deg p%d" p)
              5
              (Graph.degree inst.Instance.graph p))
          (Instance.processors inst));
    tc "G(4,3): one processor carries two terminals" (fun () ->
        let inst = Special.g43 () in
        let terminal_count p =
          Graph.fold_neighbours inst.Instance.graph p
            (fun acc v ->
              if Label.is_terminal (Instance.kind_of inst v) then acc + 1
              else acc)
            0
        in
        let counts = List.map terminal_count (Instance.processors inst) in
        check (Alcotest.list Alcotest.int) "distribution" [ 2; 1; 1; 1; 1; 1; 1 ]
          (List.sort (fun a b -> compare b a) counts));
    tc "special solutions have stable digests" (fun () ->
        (* Frozen digests of the serialized specials: any change to
           special.ml, or to the serialization, shows up here. *)
        List.iter
          (fun (name, inst, expected) ->
            check Alcotest.string name expected (Certify.digest inst))
          [
            ("G(6,2)", Special.g62 (), "4dcb12e23d0f6e0b185052e1d3e1fce4");
            ("G(8,2)", Special.g82 (), "00d1255735b80f7015f711553df2a20e");
            ("G(7,3)", Special.g73 (), "2db2494d1d77f57f27d79ce708ed3ffb");
            ("G(4,3)", Special.g43 (), "8060105a0c0d6688a3f5fa6db579e763");
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* §3.4 circulant family (E9, Figures 14-15)                           *)
(* ------------------------------------------------------------------ *)

let circulant_tests =
  [
    tc "parameter validation" (fun () ->
        Alcotest.check_raises "k < 4"
          (Invalid_argument "Circulant_family: requires k >= 4") (fun () ->
            ignore (Circulant_family.build ~n:40 ~k:3));
        check Alcotest.int "min_n" 18 (Circulant_family.min_n ~k:4);
        Alcotest.check_raises "n too small"
          (Invalid_argument "Circulant_family: requires n >= 18 for k = 4")
          (fun () -> ignore (Circulant_family.build ~n:17 ~k:4)));
    tc "figure 14: G(22,4) structure" (fun () ->
        let inst = Circulant_family.build ~n:22 ~k:4 in
        check Alcotest.int "order n+3k+2" (22 + 12 + 2) (Instance.order inst);
        check Alcotest.bool "standard" true (Instance.is_standard inst);
        check Alcotest.int "max degree k+2" 6
          (Instance.max_processor_degree inst);
        (* Every processor has degree exactly k+2 when k is even. *)
        List.iter
          (fun p ->
            check Alcotest.int (Printf.sprintf "deg %d" p) 6
              (Graph.degree inst.Instance.graph p))
          (Instance.processors inst);
        check (Alcotest.list Alcotest.int) "S nodes" [ 0; 1; 2; 3; 4; 5 ]
          (Circulant_family.s_nodes ~n:22 ~k:4);
        check Alcotest.int "R size" (22 - 8 - 4)
          (List.length (Circulant_family.r_nodes ~n:22 ~k:4)));
    tc "figure 15: G(26,5) has bisectors and degree k+3" (fun () ->
        let inst = Circulant_family.build ~n:26 ~k:5 in
        (* n even, k odd: Lemma 3.5 forces k+3 — the construction hits it. *)
        check Alcotest.int "max degree k+3" 8
          (Instance.max_processor_degree inst);
        check Alcotest.bool "degree-optimal" true
          (Bounds.is_degree_optimal inst);
        (* Bisector edges exist: offset floor(m/2) = 9 with m = 19. *)
        check Alcotest.bool "bisector edge 0-9" true
          (Graph.adjacent inst.Instance.graph 0 9));
    tc "odd k, odd n: bisector matching keeps degree k+2" (fun () ->
        (* k=5, n=27: m = 20 even, bisector is a perfect matching. *)
        let inst = Circulant_family.build ~n:27 ~k:5 in
        check Alcotest.int "max degree" 7 (Instance.max_processor_degree inst);
        check Alcotest.bool "degree-optimal" true
          (Bounds.is_degree_optimal inst));
    tc "S-S unit edges deleted, S-R unit edges kept" (fun () ->
        let inst = Circulant_family.build ~n:22 ~k:4 in
        let g = inst.Instance.graph in
        (* S = labels 0..5; R starts at 6. *)
        check Alcotest.bool "S0-S1 deleted" false (Graph.adjacent g 0 1);
        check Alcotest.bool "S5-R6 kept" true (Graph.adjacent g 5 6);
        check Alcotest.bool "S0-R15 wrap kept" true (Graph.adjacent g 0 15);
        (* Offset-2 edges inside S survive. *)
        check Alcotest.bool "S0-S2 kept" true (Graph.adjacent g 0 2));
    tc "extended graph G' is a supergraph with regular structure" (fun () ->
        let g', kind' = Circulant_family.extended ~n:22 ~k:4 in
        check Alcotest.int "order n+3k+6" (22 + 12 + 6) (Graph.order g');
        (* All of I', O', S', R' nodes have the same degree k+2... in G'
           the I'/O' cliques have k+1 clique edges + Ti + S = k+4?  No:
           I' is a (k+2)-clique so k+1 neighbours, plus Ti' and S' = k+3.
           The published G' is only claimed to be more regular, not
           degree-optimal; we check the circulant part: every C' node has
           2(p+1) = k+2 circulant neighbours. *)
        let m = 22 - 4 - 2 in
        for c = 0 to m - 1 do
          let circ_deg =
            Graph.fold_neighbours g' c (fun acc v ->
                if v < m then acc + 1 else acc)
              0
          in
          check Alcotest.int (Printf.sprintf "C' deg %d" c) 6 circ_deg
        done;
        ignore kind');
    tc "paper: the ring part is a supergraph of Hayes's FT cycle" (fun () ->
        (* §3.4: "This particular circulant subgraph is a supergraph of
           Hayes's construction [13] with the same maximum degree."  Hayes's
           k-FT cycle on m nodes is the circulant with offsets
           1..floor(k/2)+1; for even k our C' is exactly that graph, and
           for odd k ours adds only the bisector edges. *)
        let check_k n k =
          let m = n - k - 2 in
          let hayes_cycle =
            Gdpn_graph.Builder.circulant m
              (List.init ((k / 2) + 1) (fun i -> i + 1))
          in
          let g', _ = Circulant_family.extended ~n ~k in
          List.iter
            (fun (u, v) ->
              check Alcotest.bool
                (Printf.sprintf "edge (%d,%d) present for k=%d" u v k)
                true
                (Graph.adjacent g' u v))
            (Graph.edges hayes_cycle)
        in
        check_k 22 4;
        check_k 26 5;
        check_k 30 6);
    tc "G(n,k) is a subgraph of the extended graph G'(n,k)" (fun () ->
        (* The deletion construction: every edge of G appears in G' under
           the natural correspondence (identity on C, label-matched on the
           I/O/terminal blocks, shifted by the deleted label-0/label-(k+1)
           columns). *)
        let n = 22 and k = 4 in
        let m = n - k - 2 in
        let inst = Circulant_family.build ~n ~k in
        let g', _ = Circulant_family.extended ~n ~k in
        (* id translation G -> G': C identical; I label l=idx+1 -> block
           base m + l; O label l -> m + (k+2) + l; Ti label l -> ...; To. *)
        let translate v =
          if v < m then v
          else if v < m + k + 1 then m + (v - m) + 1 (* I: labels 1..k+1 *)
          else if v < m + (2 * k) + 2 then m + (k + 2) + (v - (m + k + 1))
          else if v < m + (3 * k) + 3 then
            m + (2 * (k + 2)) + (v - (m + (2 * k) + 2)) + 1
          else m + (3 * (k + 2)) + (v - (m + (3 * k) + 3))
        in
        List.iter
          (fun (u, v) ->
            check Alcotest.bool
              (Printf.sprintf "edge (%d,%d) embeds" u v)
              true
              (Graph.adjacent g' (translate u) (translate v)))
          (Graph.edges inst.Instance.graph));
    tc_slow "figure 14: G(22,4) exhaustively 4-GD (66,712 fault sets)"
      (fun () ->
        assert_k_gd_exhaustive "G(22,4)" (Circulant_family.build ~n:22 ~k:4));
    tc_slow "G(26,5) sampled 5-GD (20,000 fault sets)" (fun () ->
        assert_k_gd_sampled "G(26,5)" ~seed:11 ~trials:20000
          (Circulant_family.build ~n:26 ~k:5));
    tc_slow "G(19,4) (minimum n) exhaustively 4-GD" (fun () ->
        (* n = 19 > min_n 18: an off-example instance near the boundary. *)
        assert_k_gd_exhaustive "G(19,4)" (Circulant_family.build ~n:19 ~k:4));
    tc_slow "G(23,4) (odd n, even k) exhaustively 4-GD" (fun () ->
        assert_k_gd_exhaustive "G(23,4)" (Circulant_family.build ~n:23 ~k:4));
    tc_slow "large instances: sampled k-GD and structure, k=4..8" (fun () ->
        List.iter
          (fun (n, k, trials) ->
            let inst = Circulant_family.build ~n ~k in
            check Alcotest.bool
              (Printf.sprintf "standard G(%d,%d)" n k)
              true (Instance.is_standard inst);
            check Alcotest.bool
              (Printf.sprintf "degree-optimal G(%d,%d)" n k)
              true (Bounds.is_degree_optimal inst);
            assert_k_gd_sampled
              (Printf.sprintf "G(%d,%d)" n k)
              ~seed:(n + k) ~trials inst)
          [
            (27, 5, 2000); (40, 4, 2000); (50, 6, 1000); (60, 7, 500);
            (100, 8, 200);
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Merged-terminal model (E11)                                         *)
(* ------------------------------------------------------------------ *)

let merge_tests =
  [
    tc "merged input degree is k+1" (fun () ->
        List.iter
          (fun (n, k) ->
            let m = Merge.apply (Family.build ~n ~k) in
            check Alcotest.int
              (Printf.sprintf "G(%d,%d)" n k)
              (k + 1)
              (Graph.degree m.Instance.graph (Merge.input_node m));
            check Alcotest.int "output too" (k + 1)
              (Graph.degree m.Instance.graph (Merge.output_node m)))
          [ (1, 2); (4, 2); (6, 2); (7, 3); (22, 4) ]);
    tc "merged node kinds" (fun () ->
        let m = Merge.apply (Family.build ~n:6 ~k:2) in
        check Alcotest.bool "input kind" true
          (Label.equal (Instance.kind_of m (Merge.input_node m)) Label.Input);
        check Alcotest.bool "output kind" true
          (Label.equal (Instance.kind_of m (Merge.output_node m)) Label.Output);
        check Alcotest.int "processors preserved" 8
          (List.length (Instance.processors m)));
    tc_slow "merged instances tolerate all processor fault sets" (fun () ->
        List.iter
          (fun (n, k) ->
            let m = Merge.apply (Family.build ~n ~k) in
            let r = Verify.exhaustive ~universe:(Instance.processors m) m in
            if not (Verify.is_k_gd r) then
              Alcotest.failf "merged G(%d,%d): %s" n k
                (Format.asprintf "%a" Verify.pp_report r))
          [ (1, 1); (2, 2); (3, 2); (6, 2); (4, 3); (7, 3); (9, 2); (22, 4) ]);
    tc "merged instance is not standard (by design)" (fun () ->
        let m = Merge.apply (Family.build ~n:6 ~k:2) in
        check Alcotest.bool "not standard" false (Instance.is_standard m));
  ]

let () =
  Alcotest.run "gdpn_family"
    [
      ("family", family_tests);
      ("special", special_tests);
      ("circulant", circulant_tests);
      ("merge", merge_tests);
    ]
