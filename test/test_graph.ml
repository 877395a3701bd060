(* Unit and property tests for the gdpn_graph substrate. *)

module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Graph = Gdpn_graph.Graph
module Builder = Gdpn_graph.Builder
module Connectivity = Gdpn_graph.Connectivity
module Hamilton = Gdpn_graph.Hamilton

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let bitset_tests =
  [
    tc "empty" (fun () ->
        let s = Bitset.create 100 in
        check Alcotest.int "cardinal" 0 (Bitset.cardinal s);
        check Alcotest.bool "is_empty" true (Bitset.is_empty s));
    tc "add/mem/remove" (fun () ->
        let s = Bitset.create 200 in
        Bitset.add s 0;
        Bitset.add s 63;
        Bitset.add s 64;
        Bitset.add s 199;
        check Alcotest.bool "mem 0" true (Bitset.mem s 0);
        check Alcotest.bool "mem 63" true (Bitset.mem s 63);
        check Alcotest.bool "mem 64" true (Bitset.mem s 64);
        check Alcotest.bool "mem 199" true (Bitset.mem s 199);
        check Alcotest.bool "mem 100" false (Bitset.mem s 100);
        check Alcotest.int "cardinal" 4 (Bitset.cardinal s);
        Bitset.remove s 63;
        check Alcotest.bool "removed" false (Bitset.mem s 63);
        check Alcotest.int "cardinal after remove" 3 (Bitset.cardinal s));
    tc "full" (fun () ->
        let s = Bitset.full 130 in
        check Alcotest.int "cardinal" 130 (Bitset.cardinal s);
        check Alcotest.bool "mem last" true (Bitset.mem s 129));
    tc "full edge: exact word multiple" (fun () ->
        let cap = Sys.int_size - 1 in
        let s = Bitset.full cap in
        check Alcotest.int "cardinal" cap (Bitset.cardinal s));
    tc "elements sorted" (fun () ->
        let s = Bitset.of_list 300 [ 250; 3; 77; 3 ] in
        check (Alcotest.list Alcotest.int) "elements" [ 3; 77; 250 ]
          (Bitset.elements s));
    tc "set ops" (fun () ->
        let a = Bitset.of_list 100 [ 1; 2; 3; 50 ] in
        let b = Bitset.of_list 100 [ 2; 3; 99 ] in
        check Alcotest.int "count_common" 2 (Bitset.count_common a b);
        check Alcotest.bool "subset no" false (Bitset.subset a b);
        let c = Bitset.copy a in
        Bitset.inter_into c b;
        check (Alcotest.list Alcotest.int) "inter" [ 2; 3 ] (Bitset.elements c);
        check Alcotest.bool "subset yes" true (Bitset.subset c a);
        let d = Bitset.copy a in
        Bitset.diff_into d b;
        check (Alcotest.list Alcotest.int) "diff" [ 1; 50 ] (Bitset.elements d);
        Bitset.union_into d b;
        check (Alcotest.list Alcotest.int) "union" [ 1; 2; 3; 50; 99 ]
          (Bitset.elements d));
    tc "choose" (fun () ->
        check
          (Alcotest.option Alcotest.int)
          "empty" None
          (Bitset.choose (Bitset.create 10));
        check
          (Alcotest.option Alcotest.int)
          "min" (Some 4)
          (Bitset.choose (Bitset.of_list 10 [ 7; 4; 9 ])));
    tc "blit" (fun () ->
        let a = Bitset.of_list 70 [ 1; 69 ] in
        let b = Bitset.of_list 70 [ 5 ] in
        Bitset.blit ~src:a ~dst:b;
        check Alcotest.bool "equal" true (Bitset.equal a b));
  ]

let bitset_props =
  let open QCheck in
  [
    Test.make ~name:"of_list cardinal = distinct count" ~count:200
      (list (int_bound 499))
      (fun xs ->
        let s = Bitset.of_list 500 xs in
        Bitset.cardinal s = List.length (List.sort_uniq compare xs));
    Test.make ~name:"iter visits exactly the elements in order" ~count:200
      (list (int_bound 499))
      (fun xs ->
        let s = Bitset.of_list 500 xs in
        let seen = ref [] in
        Bitset.iter (fun i -> seen := i :: !seen) s;
        List.rev !seen = List.sort_uniq compare xs);
  ]

(* ------------------------------------------------------------------ *)
(* Combinat                                                            *)
(* ------------------------------------------------------------------ *)

let combinat_tests =
  [
    tc "binomial small" (fun () ->
        check Alcotest.int "5C2" 10 (Combinat.binomial 5 2);
        check Alcotest.int "nC0" 1 (Combinat.binomial 7 0);
        check Alcotest.int "nCn" 1 (Combinat.binomial 7 7);
        check Alcotest.int "out of range" 0 (Combinat.binomial 3 5);
        check Alcotest.int "negative k" 0 (Combinat.binomial 3 (-1));
        check Alcotest.int "36C4" 58905 (Combinat.binomial 36 4));
    tc "count_up_to" (fun () ->
        check Alcotest.int "n=4,k=2" (1 + 4 + 6) (Combinat.count_up_to 4 2));
    tc "iter_choose counts and lexicographic" (fun () ->
        let collected = ref [] in
        Combinat.iter_choose 5 3 (fun buf -> collected := Array.to_list buf :: !collected);
        let subsets = List.rev !collected in
        check Alcotest.int "count" 10 (List.length subsets);
        check
          (Alcotest.list (Alcotest.list Alcotest.int))
          "sorted lexicographically" (List.sort compare subsets) subsets;
        check (Alcotest.list Alcotest.int) "first" [ 0; 1; 2 ] (List.hd subsets));
    tc "iter_choose k=0 fires once" (fun () ->
        let count = ref 0 in
        Combinat.iter_choose 5 0 (fun _ -> incr count);
        check Alcotest.int "once" 1 !count);
    tc "iter_subsets_up_to counts" (fun () ->
        let count = ref 0 in
        Combinat.iter_subsets_up_to 6 3 (fun _ _ -> incr count);
        check Alcotest.int "count" (Combinat.count_up_to 6 3) !count);
    tc "exists_choose short-circuit" (fun () ->
        check Alcotest.bool "finds" true
          (Combinat.exists_choose 10 2 (fun buf -> buf.(0) = 3 && buf.(1) = 7));
        check Alcotest.bool "absent" false
          (Combinat.exists_choose 4 2 (fun buf -> buf.(1) > 10)));
    tc "overflow boundary raises, never wraps" (fun () ->
        (* G(200,6)-scale ranks still fit int63 exactly. *)
        check Alcotest.int "200C6" 82_408_626_300 (Combinat.binomial 200 6);
        check Alcotest.int "count_up_to 200 6" 85_010_294_791
          (Combinat.count_up_to 200 6);
        let last = Array.init 6 (fun i -> 194 + i) in
        check Alcotest.int "rank of last size-6 subset"
          (Combinat.count_up_to 200 6 - 1)
          (Combinat.rank_of_subset 200 last 6);
        (* Past the representable range the guard must raise
           Invalid_argument — the old post-hoc sign check missed products
           wrapping back into positive territory. *)
        let raises f =
          match f () with
          | (_ : int) -> false
          | exception Invalid_argument _ -> true
        in
        check Alcotest.bool "binomial 300 150 raises" true
          (raises (fun () -> Combinat.binomial 300 150));
        check Alcotest.bool "binomial 100 50 raises" true
          (raises (fun () -> Combinat.binomial 100 50));
        check Alcotest.bool "count_up_to 300 150 raises" true
          (raises (fun () -> Combinat.count_up_to 300 150)));
  ]

let combinat_props =
  let open QCheck in
  [
    Test.make ~name:"iter_choose enumerates binomial(n,k) distinct subsets"
      ~count:50
      (pair (int_range 0 9) (int_range 0 9))
      (fun (n, k) ->
        let k = min k n in
        let seen = Hashtbl.create 64 in
        Combinat.iter_choose n k (fun buf ->
            Hashtbl.replace seen (Array.to_list buf) ());
        Hashtbl.length seen = Combinat.binomial n k);
    Test.make ~name:"sample returns sorted distinct in-range subsets" ~count:200
      (pair (int_range 1 50) (int_range 0 50))
      (fun (n, k) ->
        let k = min k n in
        let rng = Random.State.make [| n; k |] in
        let s = Combinat.sample rng n k in
        Array.length s = k
        && Array.for_all (fun x -> x >= 0 && x < n) s
        && Array.to_list s = List.sort_uniq compare (Array.to_list s));
  ]

(* ------------------------------------------------------------------ *)
(* Graph + Builder                                                     *)
(* ------------------------------------------------------------------ *)

let graph_tests =
  [
    tc "clique degrees" (fun () ->
        let g = Builder.clique 6 in
        check Alcotest.int "order" 6 (Graph.order g);
        check Alcotest.int "size" 15 (Graph.size g);
        check Alcotest.int "max degree" 5 (Graph.max_degree g);
        check Alcotest.bool "adjacent" true (Graph.adjacent g 0 5));
    tc "path structure" (fun () ->
        let g = Builder.path 5 in
        check Alcotest.int "size" 4 (Graph.size g);
        check Alcotest.int "deg end" 1 (Graph.degree g 0);
        check Alcotest.int "deg mid" 2 (Graph.degree g 2);
        check Alcotest.bool "non-adjacent" false (Graph.adjacent g 0 2));
    tc "cycle structure" (fun () ->
        let g = Builder.cycle 5 in
        check Alcotest.int "size" 5 (Graph.size g);
        check Alcotest.bool "wrap edge" true (Graph.adjacent g 4 0));
    tc "self-loop rejected" (fun () ->
        let b = Graph.builder 3 in
        Alcotest.check_raises "loop" (Invalid_argument "Graph.add_edge: self-loop")
          (fun () -> Graph.add_edge b 1 1));
    tc "duplicate rejected" (fun () ->
        let b = Graph.builder 3 in
        Graph.add_edge b 0 1;
        Alcotest.check_raises "dup" (Invalid_argument "Graph.add_edge: duplicate edge")
          (fun () -> Graph.add_edge b 1 0));
    tc "circulant offsets" (fun () ->
        (* C(8, {1,4}): the cycle plus 4 diagonals. *)
        let g = Builder.circulant 8 [ 1; 4 ] in
        check Alcotest.int "size" 12 (Graph.size g);
        check Alcotest.int "deg" 3 (Graph.degree g 0);
        check Alcotest.bool "diagonal" true (Graph.adjacent g 0 4);
        check Alcotest.bool "ring" true (Graph.adjacent g 7 0));
    tc "circulant rejects zero offset" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Builder.circulant: offset is 0 mod m") (fun () ->
            ignore (Builder.circulant 5 [ 5 ])));
    tc "circulant symmetric offset collapses" (fun () ->
        (* offsets 2 and 3 on m=5 describe the same edges. *)
        let a = Builder.circulant 5 [ 2 ] in
        let b = Builder.circulant 5 [ 2; 3 ] in
        check Alcotest.bool "equal" true (Graph.equal a b));
    tc "clique_minus_matching" (fun () ->
        let g = Builder.clique_minus_matching 6 in
        check Alcotest.int "size" (15 - 3) (Graph.size g);
        check Alcotest.bool "0-1 removed" false (Graph.adjacent g 0 1);
        check Alcotest.bool "0-2 kept" true (Graph.adjacent g 0 2);
        (* Odd order: last node keeps full degree. *)
        let h = Builder.clique_minus_matching 5 in
        check Alcotest.int "deg last" 4 (Graph.degree h 4);
        check Alcotest.int "deg matched" 3 (Graph.degree h 0));
    tc "edges sorted, induced_mask" (fun () ->
        let g = Builder.cycle 6 in
        let alive = Bitset.of_list 6 [ 0; 1; 2; 4 ] in
        let sub, to_sub, to_orig = Graph.induced_mask g alive in
        check Alcotest.int "sub order" 4 (Graph.order sub);
        check Alcotest.int "sub size" 2 (Graph.size sub);
        check Alcotest.int "map" 3 to_sub.(4);
        check Alcotest.int "inverse" 4 to_orig.(3);
        check Alcotest.int "dead" (-1) to_sub.(3));
    tc "degree_histogram" (fun () ->
        let g = Builder.path 4 in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "histogram" [ (1, 2); (2, 2) ]
          (Graph.degree_histogram g));
    tc "is_clique_on" (fun () ->
        let g = Builder.clique_minus_matching 6 in
        check Alcotest.bool "yes" true (Graph.is_clique_on g [ 0; 2; 4 ]);
        check Alcotest.bool "no" false (Graph.is_clique_on g [ 0; 1; 2 ]));
  ]

let graph_props =
  let open QCheck in
  let random_graph_gen =
    (* (order, edge seed) -> Erdős–Rényi-ish graph *)
    Gen.(
      pair (int_range 1 30) int >|= fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let b = Graph.builder n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.3 then Graph.add_edge b u v
        done
      done;
      Graph.freeze b)
  in
  let arb = QCheck.make ~print:(Fmt.to_to_string Graph.pp) random_graph_gen in
  [
    Test.make ~name:"handshake: sum of degrees = 2|E|" ~count:200 arb (fun g ->
        let sum = ref 0 in
        for v = 0 to Graph.order g - 1 do
          sum := !sum + Graph.degree g v
        done;
        !sum = 2 * Graph.size g);
    Test.make ~name:"adjacency is symmetric" ~count:100 arb (fun g ->
        let ok = ref true in
        for u = 0 to Graph.order g - 1 do
          for v = 0 to Graph.order g - 1 do
            if u <> v && Graph.adjacent g u v <> Graph.adjacent g v u then
              ok := false
          done
        done;
        !ok);
    Test.make ~name:"of_edges . edges = identity" ~count:100 arb (fun g ->
        Graph.equal g (Graph.of_edges (Graph.order g) (Graph.edges g)));
    Test.make ~name:"alive_degree matches brute count" ~count:100
      (pair arb (list (int_bound 29)))
      (fun (g, dead) ->
        let n = Graph.order g in
        let alive = Bitset.full n in
        List.iter (fun v -> if v < n then Bitset.remove alive v) dead;
        let ok = ref true in
        for v = 0 to n - 1 do
          let brute =
            Array.fold_left
              (fun acc u -> if Bitset.mem alive u then acc + 1 else acc)
              0 (Graph.neighbours g v)
          in
          if brute <> Kernel.alive_degree g alive v then ok := false
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Connectivity                                                        *)
(* ------------------------------------------------------------------ *)

let connectivity_tests =
  [
    tc "connected cycle" (fun () ->
        let g = Builder.cycle 8 in
        check Alcotest.bool "yes" true
          (Connectivity.connected_within g ~alive:(Bitset.full 8)));
    tc "cycle minus 2 opposite nodes splits" (fun () ->
        let g = Builder.cycle 8 in
        let alive = Bitset.full 8 in
        Bitset.remove alive 0;
        Bitset.remove alive 4;
        check Alcotest.bool "disconnected" false
          (Connectivity.connected_within g ~alive);
        check Alcotest.int "two components" 2
          (List.length (Connectivity.components g ~alive)));
    tc "empty and singleton connected" (fun () ->
        let g = Builder.path 4 in
        check Alcotest.bool "empty" true
          (Connectivity.connected_within g ~alive:(Bitset.create 4));
        check Alcotest.bool "singleton" true
          (Connectivity.connected_within g ~alive:(Bitset.of_list 4 [ 2 ])));
    tc "articulation points of a path" (fun () ->
        let g = Builder.path 5 in
        let aps = Connectivity.articulation_points g ~alive:(Bitset.full 5) in
        check (Alcotest.list Alcotest.int) "inner nodes" [ 1; 2; 3 ]
          (Bitset.elements aps));
    tc "articulation points of a cycle: none" (fun () ->
        let g = Builder.cycle 6 in
        let aps = Connectivity.articulation_points g ~alive:(Bitset.full 6) in
        check Alcotest.bool "none" true (Bitset.is_empty aps));
    tc "articulation point of two triangles sharing a node" (fun () ->
        let g =
          Graph.of_edges 5 [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ]
        in
        let aps = Connectivity.articulation_points g ~alive:(Bitset.full 5) in
        check (Alcotest.list Alcotest.int) "shared node" [ 2 ]
          (Bitset.elements aps));
    tc "distances: BFS hops on a path" (fun () ->
        let g = Builder.path 6 in
        let d = Connectivity.distances g ~alive:(Bitset.full 6) 2 in
        check (Alcotest.array Alcotest.int) "hops" [| 2; 1; 0; 1; 2; 3 |] d);
    tc "distances mark unreachable as -1" (fun () ->
        let g = Builder.path 6 in
        let alive = Bitset.of_list 6 [ 0; 1; 3; 4; 5 ] in
        let d = Connectivity.distances g ~alive 0 in
        check Alcotest.int "cut off" (-1) d.(3);
        check Alcotest.int "dead node" (-1) d.(2);
        check Alcotest.int "own side" 1 d.(1));
    tc "diameter of standard graphs" (fun () ->
        check (Alcotest.option Alcotest.int) "path" (Some 5)
          (Connectivity.diameter (Builder.path 6) ~alive:(Bitset.full 6));
        check (Alcotest.option Alcotest.int) "cycle" (Some 3)
          (Connectivity.diameter (Builder.cycle 7) ~alive:(Bitset.full 7));
        check (Alcotest.option Alcotest.int) "clique" (Some 1)
          (Connectivity.diameter (Builder.clique 5) ~alive:(Bitset.full 5));
        check (Alcotest.option Alcotest.int) "singleton" (Some 0)
          (Connectivity.diameter (Builder.clique 5)
             ~alive:(Bitset.of_list 5 [ 2 ]));
        check (Alcotest.option Alcotest.int) "empty" None
          (Connectivity.diameter (Builder.clique 5) ~alive:(Bitset.create 5));
        (* disconnected *)
        check (Alcotest.option Alcotest.int) "disconnected" None
          (Connectivity.diameter (Builder.path 6)
             ~alive:(Bitset.of_list 6 [ 0; 1; 4; 5 ])));
    tc "reachable respects alive mask" (fun () ->
        let g = Builder.path 6 in
        let alive = Bitset.of_list 6 [ 0; 1; 2; 4; 5 ] in
        let r = Connectivity.reachable g ~alive 0 in
        check (Alcotest.list Alcotest.int) "left side" [ 0; 1; 2 ]
          (Bitset.elements r));
  ]

(* ------------------------------------------------------------------ *)
(* Hamilton                                                            *)
(* ------------------------------------------------------------------ *)

let path_result =
  Alcotest.testable
    (fun ppf -> function
      | Hamilton.Path p ->
        Format.fprintf ppf "Path [%s]"
          (String.concat ";" (List.map string_of_int p))
      | Hamilton.No_path -> Format.fprintf ppf "No_path"
      | Hamilton.Budget_exceeded -> Format.fprintf ppf "Budget_exceeded")
    (fun a b ->
      match (a, b) with
      | Hamilton.No_path, Hamilton.No_path -> true
      | Hamilton.Budget_exceeded, Hamilton.Budget_exceeded -> true
      | Hamilton.Path _, Hamilton.Path _ -> true
      | _ -> false)

let hamilton_tests =
  [
    tc "path graph has unique spanning path" (fun () ->
        let g = Builder.path 6 in
        let all = Bitset.full 6 in
        match
          Kernel.spanning_path g ~alive:all ~starts:(Bitset.of_list 6 [ 0 ])
            ~ends:(Bitset.of_list 6 [ 5 ])
        with
        | Hamilton.Path p ->
          check (Alcotest.list Alcotest.int) "the path" [ 0; 1; 2; 3; 4; 5 ] p
        | _ -> Alcotest.fail "expected a path");
    tc "path graph: impossible endpoints" (fun () ->
        let g = Builder.path 6 in
        let all = Bitset.full 6 in
        check path_result "no path from middle" Hamilton.No_path
          (Kernel.spanning_path g ~alive:all
             ~starts:(Bitset.of_list 6 [ 2 ])
             ~ends:(Bitset.of_list 6 [ 5 ])));
    tc "clique: any distinct endpoints work" (fun () ->
        let g = Builder.clique 7 in
        let all = Bitset.full 7 in
        for s = 0 to 6 do
          for e = 0 to 6 do
            if s <> e then
              match
                Kernel.spanning_path g ~alive:all
                  ~starts:(Bitset.of_list 7 [ s ])
                  ~ends:(Bitset.of_list 7 [ e ])
              with
              | Hamilton.Path p ->
                check Alcotest.bool "valid" true
                  (Kernel.is_spanning_path g ~alive:all
                     ~starts:(Bitset.of_list 7 [ s ])
                     ~ends:(Bitset.of_list 7 [ e ])
                     p)
              | _ -> Alcotest.fail "clique must have a spanning path"
          done
        done;
        (* start = end is impossible once more than one node is alive. *)
        check path_result "same endpoints impossible" Hamilton.No_path
          (Kernel.spanning_path g ~alive:all
             ~starts:(Bitset.of_list 7 [ 3 ])
             ~ends:(Bitset.of_list 7 [ 3 ])));
    tc "single node path needs start = end" (fun () ->
        let g = Builder.clique 3 in
        let alive = Bitset.of_list 3 [ 1 ] in
        (match
           Kernel.spanning_path g ~alive ~starts:(Bitset.of_list 3 [ 1 ])
             ~ends:(Bitset.of_list 3 [ 1 ])
         with
        | Hamilton.Path [ 1 ] -> ()
        | _ -> Alcotest.fail "expected [1]");
        check path_result "distinct sets" Hamilton.No_path
          (Kernel.spanning_path g ~alive
             ~starts:(Bitset.of_list 3 [ 1 ])
             ~ends:(Bitset.of_list 3 [ 2 ])));
    tc "disconnected alive set has no spanning path" (fun () ->
        let g = Builder.path 6 in
        let alive = Bitset.of_list 6 [ 0; 1; 4; 5 ] in
        check path_result "no" Hamilton.No_path
          (Kernel.spanning_path g ~alive ~starts:(Bitset.full 6)
             ~ends:(Bitset.full 6)));
    tc "petersen graph is hypohamiltonian (no ham cycle, has ham path)" (fun () ->
        (* Petersen: outer C5, inner pentagram, spokes. *)
        let edges =
          [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
            (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
            (0, 5); (1, 6); (2, 7); (3, 8); (4, 9) ]
        in
        let g = Graph.of_edges 10 edges in
        let all = Bitset.full 10 in
        (* A Hamiltonian path exists from any vertex. *)
        (match
           Kernel.spanning_path g ~alive:all ~starts:(Bitset.full 10)
             ~ends:(Bitset.full 10)
         with
        | Hamilton.Path p -> check Alcotest.int "length" 10 (List.length p)
        | _ -> Alcotest.fail "petersen has a hamiltonian path");
        (* But no Hamiltonian path between adjacent endpoints 0-1 would close a
           cycle... actually Petersen has ham paths between SOME pairs; the
           known fact: no Hamiltonian CYCLE.  Check: no spanning path from 0
           ending in a neighbour of 0 exists would imply no cycle through 0;
           verify none of the 0-neighbours terminate one. *)
        let from0 ends_v =
          Kernel.spanning_path g ~alive:all
            ~starts:(Bitset.of_list 10 [ 0 ])
            ~ends:(Bitset.of_list 10 [ ends_v ])
        in
        List.iter
          (fun v ->
            check path_result
              (Printf.sprintf "no ham path 0 -> %d (would close a cycle)" v)
              Hamilton.No_path (from0 v))
          [ 1; 4; 5 ]);
    tc "budget exhausts on large sparse instance" (fun () ->
        (* A big grid-ish graph with budget 1 must give Budget_exceeded or
           find instantly; with budget 1 even the first expansion charge
           trips. *)
        let g = Builder.cycle 50 in
        let all = Bitset.full 50 in
        check path_result "budget" Hamilton.Budget_exceeded
          (Kernel.spanning_path ~budget:1 g ~alive:all
             ~starts:(Bitset.of_list 50 [ 0 ])
             ~ends:(Bitset.of_list 50 [ 25 ])));
    tc "petersen has no hamiltonian cycle (the classic)" (fun () ->
        let edges =
          [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
            (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
            (0, 5); (1, 6); (2, 7); (3, 8); (4, 9) ]
        in
        let g = Graph.of_edges 10 edges in
        (* A Hamiltonian cycle would pass through node 0, so cutting it at
           0 leaves a spanning path from 0 to one of 0's neighbours. *)
        check path_result "hypohamiltonian" Hamilton.No_path
          (Kernel.spanning_path g ~alive:(Bitset.full 10)
             ~starts:(Bitset.of_list 10 [ 0 ])
             ~ends:(Bitset.of_list 10 [ 1; 4; 5 ])));
    tc "is_spanning_path validator" (fun () ->
        let g = Builder.path 4 in
        let all = Bitset.full 4 in
        let starts = Bitset.of_list 4 [ 0 ] and ends = Bitset.of_list 4 [ 3 ] in
        check Alcotest.bool "valid" true
          (Kernel.is_spanning_path g ~alive:all ~starts ~ends [ 0; 1; 2; 3 ]);
        check Alcotest.bool "wrong endpoint" false
          (Kernel.is_spanning_path g ~alive:all ~starts ~ends [ 3; 2; 1; 0 ]);
        check Alcotest.bool "missing node" false
          (Kernel.is_spanning_path g ~alive:all ~starts ~ends [ 0; 1; 2 ]);
        check Alcotest.bool "revisit" false
          (Kernel.is_spanning_path g ~alive:all ~starts ~ends [ 0; 1; 0; 1 ]);
        check Alcotest.bool "empty" false
          (Kernel.is_spanning_path g ~alive:all ~starts ~ends []));
  ]

let hamilton_props =
  let open QCheck in
  let dense_graph_gen =
    Gen.(
      pair (int_range 3 14) int >|= fun (n, seed) ->
      let rng = Random.State.make [| seed; 17 |] in
      let b = Graph.builder n in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Random.State.float rng 1.0 < 0.6 then Graph.add_edge b u v
        done
      done;
      Graph.freeze b)
  in
  let arb = QCheck.make ~print:(Fmt.to_to_string Graph.pp) dense_graph_gen in
  [
    Test.make ~name:"found paths always validate" ~count:300 arb (fun g ->
        let n = Graph.order g in
        let all = Bitset.full n in
        match
          Kernel.spanning_path g ~alive:all ~starts:all ~ends:all
        with
        | Hamilton.Path p ->
          Kernel.is_spanning_path g ~alive:all ~starts:all ~ends:all p
        | Hamilton.No_path -> true
        | Hamilton.Budget_exceeded -> false);
    Test.make ~name:"solver agrees with brute-force permutation check (n<=7)"
      ~count:150
      (QCheck.make
         Gen.(
           pair (int_range 2 7) int >|= fun (n, seed) ->
           let rng = Random.State.make [| seed; 23 |] in
           let b = Graph.builder n in
           for u = 0 to n - 1 do
             for v = u + 1 to n - 1 do
               if Random.State.float rng 1.0 < 0.45 then Graph.add_edge b u v
             done
           done;
           Graph.freeze b))
      (fun g ->
        let n = Graph.order g in
        let all = Bitset.full n in
        let starts = Bitset.of_list n [ 0 ] in
        let ends = Bitset.full n in
        let solver_says =
          match Kernel.spanning_path g ~alive:all ~starts ~ends with
          | Hamilton.Path _ -> true
          | _ -> false
        in
        (* Brute force: try all permutations starting at 0. *)
        let rec perms acc rest =
          match rest with
          | [] -> [ List.rev acc ]
          | _ ->
            List.concat_map
              (fun x -> perms (x :: acc) (List.filter (fun y -> y <> x) rest))
              rest
        in
        let nodes = List.init (n - 1) (fun i -> i + 1) in
        let brute =
          List.exists
            (fun p ->
              let full = 0 :: p in
              let rec ok = function
                | a :: (b :: _ as rest) -> Graph.adjacent g a b && ok rest
                | _ -> true
              in
              ok full)
            (perms [] nodes)
        in
        solver_says = brute);
  ]

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)
(* ------------------------------------------------------------------ *)

let contains = Testutil.contains_substring

let dot_tests =
  [
    tc "render lists every node and edge" (fun () ->
        let g = Builder.path 3 in
        let doc = Gdpn_graph.Dot.render g in
        check Alcotest.bool "header" true (contains doc "graph G {");
        check Alcotest.bool "edge 0-1" true (contains doc "0 -- 1;");
        check Alcotest.bool "edge 1-2" true (contains doc "1 -- 2;");
        check Alcotest.bool "node 2" true (contains doc "2 [label=\"2\""));
    tc "highlighted edges are styled regardless of orientation" (fun () ->
        let g = Builder.path 3 in
        let doc =
          Gdpn_graph.Dot.render ~highlight_edges:[ (2, 1) ] g
        in
        check Alcotest.bool "bold red" true
          (contains doc "1 -- 2 [color=red, penwidth=2.5];");
        check Alcotest.bool "other edge plain" true (contains doc "0 -- 1;"));
    tc "custom style hook is applied" (fun () ->
        let g = Builder.path 2 in
        let style v =
          { Gdpn_graph.Dot.label = Printf.sprintf "node%d" v; shape = "box";
            color = "blue"; filled = v = 1 }
        in
        let doc = Gdpn_graph.Dot.render ~style g in
        check Alcotest.bool "label" true (contains doc "label=\"node0\"");
        check Alcotest.bool "fill" true (contains doc "style=filled"));
  ]

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

let pqueue_tests =
  [
    tc "pop order is by key" (fun () ->
        let q = Gdpn_graph.Pqueue.create () in
        List.iter
          (fun k -> Gdpn_graph.Pqueue.push q ~key:k (string_of_int k))
          [ 5; 1; 4; 1; 3 ];
        let out = ref [] in
        let rec drain () =
          match Gdpn_graph.Pqueue.pop q with
          | Some (k, _) ->
            out := k :: !out;
            drain ()
          | None -> ()
        in
        drain ();
        check (Alcotest.list Alcotest.int) "sorted" [ 1; 1; 3; 4; 5 ]
          (List.rev !out));
    tc "FIFO among equal keys" (fun () ->
        let q = Gdpn_graph.Pqueue.create () in
        Gdpn_graph.Pqueue.push q ~key:7 "first";
        Gdpn_graph.Pqueue.push q ~key:7 "second";
        Gdpn_graph.Pqueue.push q ~key:7 "third";
        let pop () =
          match Gdpn_graph.Pqueue.pop q with
          | Some (_, v) -> v
          | None -> "empty"
        in
        check Alcotest.string "1" "first" (pop ());
        check Alcotest.string "2" "second" (pop ());
        check Alcotest.string "3" "third" (pop ()));
    tc "peek and length" (fun () ->
        let q = Gdpn_graph.Pqueue.create () in
        check (Alcotest.option Alcotest.int) "empty peek" None
          (Gdpn_graph.Pqueue.peek_key q);
        check Alcotest.bool "empty" true (Gdpn_graph.Pqueue.is_empty q);
        Gdpn_graph.Pqueue.push q ~key:9 ();
        Gdpn_graph.Pqueue.push q ~key:2 ();
        check (Alcotest.option Alcotest.int) "peek min" (Some 2)
          (Gdpn_graph.Pqueue.peek_key q);
        check Alcotest.int "length" 2 (Gdpn_graph.Pqueue.length q));
  ]

let pqueue_props =
  let open QCheck in
  [
    Test.make ~name:"pqueue drains any key list in sorted stable order"
      ~count:300 (list small_int) (fun keys ->
        let q = Gdpn_graph.Pqueue.create () in
        List.iteri (fun i k -> Gdpn_graph.Pqueue.push q ~key:k i) keys;
        let rec drain acc =
          match Gdpn_graph.Pqueue.pop q with
          | Some (k, v) -> drain ((k, v) :: acc)
          | None -> List.rev acc
        in
        let out = drain [] in
        (* Keys sorted; equal keys in insertion (value) order = stable sort
           of the (key, index) pairs. *)
        out = List.stable_sort (fun (a, _) (b, _) -> compare a b)
                (List.mapi (fun i k -> (k, i)) keys));
  ]

let () =
  Alcotest.run "gdpn_graph"
    [
      ("dot", dot_tests);
      ("pqueue", pqueue_tests);
      ("pqueue-props", List.map QCheck_alcotest.to_alcotest pqueue_props);
      ("bitset", bitset_tests);
      ("bitset-props", List.map QCheck_alcotest.to_alcotest bitset_props);
      ("combinat", combinat_tests);
      ("combinat-props", List.map QCheck_alcotest.to_alcotest combinat_props);
      ("graph", graph_tests);
      ("graph-props", List.map QCheck_alcotest.to_alcotest graph_props);
      ("connectivity", connectivity_tests);
      ("hamilton", hamilton_tests);
      ("hamilton-props", List.map QCheck_alcotest.to_alcotest hamilton_props);
    ]
