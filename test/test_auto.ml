(* Tests for the symmetry layer (PR 2): automorphism group computation
   (checked against a brute-force n! oracle and frozen orders for the
   paper families), the element-table orbit scans (checked against the
   breadth-first orbit walk they replaced, on groups of order 2 to
   1,440), orbit-reduced verification (verdicts, counts and
   orbit-expanded failure sets must agree with full enumeration,
   including on instances that genuinely fail), domain-sharded orbit
   verification, and orbit-compressed certificates. *)

open Gdpn_core
module Graph = Gdpn_graph.Graph
module Auto = Gdpn_graph.Auto
module Combinat = Gdpn_graph.Combinat
module Engine = Gdpn_engine.Engine

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Brute-force oracle                                                  *)
(* ------------------------------------------------------------------ *)

let iter_permutations n f =
  let perm = Array.init n (fun i -> i) in
  let rec go i =
    if i = n then f perm
    else
      for j = i to n - 1 do
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t;
        go (i + 1);
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done
  in
  go 0

(* Independent of [Auto.is_automorphism]: a bijection preserves adjacency
   iff it maps every edge to an edge (edge sets are finite and equal in
   size, so injectivity gives the converse direction for free). *)
let oracle_order ?(colour = fun _ -> 0) g =
  let n = Graph.order g in
  let edges = Graph.edges g in
  let count = ref 0 in
  iter_permutations n (fun p ->
      let ok = ref true in
      for v = 0 to n - 1 do
        if colour p.(v) <> colour v then ok := false
      done;
      if !ok && List.for_all (fun (u, v) -> Graph.adjacent g p.(u) p.(v)) edges
      then incr count);
  !count

let cycle n = Graph.of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))
let path n = Graph.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let complete n =
  let b = Graph.builder n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Graph.add_edge b i j
    done
  done;
  Graph.freeze b

(* The smallest asymmetric graph (6 nodes, automorphism group trivial). *)
let asymmetric () =
  Graph.of_edges 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (1, 3); (1, 4) ]

let group_tests =
  [
    tc "order matches the n! oracle on small graphs" (fun () ->
        List.iter
          (fun (name, g) ->
            check Alcotest.int name (oracle_order g)
              (Auto.order (Auto.automorphisms g)))
          [
            ("C5", cycle 5);
            ("C6", cycle 6);
            ("P4", path 4);
            ("K4", complete 4);
            ("star K1,3", Graph.of_edges 4 [ (0, 1); (0, 2); (0, 3) ]);
            ("asymmetric-6", asymmetric ());
            ("two edges", Graph.of_edges 4 [ (0, 1); (2, 3) ]);
          ]);
    tc "coloured order matches the oracle" (fun () ->
        let colour v = v mod 2 in
        List.iter
          (fun (name, g) ->
            check Alcotest.int name
              (oracle_order ~colour g)
              (Auto.order (Auto.automorphisms ~colour g)))
          [ ("C6 alternating", cycle 6); ("K4 alternating", complete 4) ]);
    tc "asymmetric graph yields the trivial group" (fun () ->
        let g = Auto.automorphisms (asymmetric ()) in
        check Alcotest.bool "trivial" true (Auto.is_trivial g);
        check Alcotest.int "order" 1 (Auto.order g));
    tc "frozen group orders on the paper families" (fun () ->
        let full inst = Auto.order (Instance.symmetry inst) in
        let pure inst = Auto.order (Instance.symmetry ~reversal:false inst) in
        (* G(1,k): clique on k+1 inputs wired symmetrically — pure group
           (k+1)!, reversal doubles it.  G(2,k): k! / 2·k!.  G(3,k)'s
           layered clique core leaves less room; orders measured once and
           frozen here. *)
        check Alcotest.int "G(1,5) pure" 720 (pure (Small_n.g1 ~k:5));
        check Alcotest.int "G(1,5) full" 1440 (full (Small_n.g1 ~k:5));
        check Alcotest.int "G(2,5) pure" 120 (pure (Small_n.g2 ~k:5));
        check Alcotest.int "G(2,5) full" 240 (full (Small_n.g2 ~k:5));
        check Alcotest.int "G(3,3) full" 8 (full (Small_n.g3 ~k:3));
        check Alcotest.int "G(3,5) full" 32 (full (Small_n.g3 ~k:5));
        check Alcotest.int "G(3,2) trivial" 1 (full (Small_n.g3 ~k:2));
        (* The circulant's ring rotations do not survive the labeled
           terminal attachments: only the input/output reversal remains. *)
        check Alcotest.int "circulant G(18,4) full" 2
          (full (Circulant_family.build ~n:18 ~k:4)));
    tc "of_generators has the exact order of the generated group" (fun () ->
        let cyc n = Array.init n (fun i -> (i + 1) mod n) in
        let swap n i j =
          Array.init n (fun v -> if v = i then j else if v = j then i else v)
        in
        List.iter
          (fun (name, degree, gens, want) ->
            check Alcotest.int name want
              (Auto.order (Auto.of_generators ~degree gens)))
          [
            ("S5 from a transposition and a 5-cycle", 5, [ swap 5 0 1; cyc 5 ], 120);
            ("D6 from a rotation and a reflection", 6,
             [ cyc 6; Array.init 6 (fun i -> (6 - i) mod 6) ], 12);
            ("A4 from two 3-cycles", 4, [ [| 1; 2; 0; 3 |]; [| 0; 2; 3; 1 |] ], 12);
            ("C2 x C2, a generator repeated, the identity", 4,
             [ swap 4 0 1; swap 4 2 3; swap 4 0 1; Array.init 4 Fun.id ], 4);
            ("no generators", 3, [], 1);
          ]);
    tc "adjoin_involution rejects bad arguments" (fun () ->
        let g = Auto.automorphisms (cycle 5) in
        Alcotest.check_raises "identity"
          (Invalid_argument "Auto.adjoin_involution: identity") (fun () ->
            ignore (Auto.adjoin_involution g (Array.init 5 (fun i -> i))));
        Alcotest.check_raises "not a permutation"
          (Invalid_argument
             "Auto.adjoin_involution: not a permutation of the degree")
          (fun () -> ignore (Auto.adjoin_involution g [| 0; 0; 1; 2; 3 |])));
  ]

(* ------------------------------------------------------------------ *)
(* Reference orbit walk                                                *)
(* ------------------------------------------------------------------ *)

(* The orbit machinery before groups carried an element table, kept here
   as the oracle for the table scans: close the set under the generators
   breadth-first, keying every member seen in a hash table.  It shares
   nothing with [Auto]'s scans but the generator list. *)
let apply_sorted p set =
  let img = Array.map (fun v -> p.(v)) set in
  Array.sort compare img;
  img

let ref_orbit g set =
  let set = Array.copy set in
  Array.sort compare set;
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen set ();
  let members = ref [ set ] in
  let queue = Queue.create () in
  Queue.add set queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter
      (fun p ->
        let img = apply_sorted p s in
        if not (Hashtbl.mem seen img) then begin
          Hashtbl.replace seen img ();
          members := img :: !members;
          Queue.add img queue
        end)
      (Auto.generators g)
  done;
  List.rev !members

let ref_canonical g set =
  match ref_orbit g set with
  | [] -> assert false
  | first :: rest -> List.fold_left min first rest

(* The enumeration [Auto.fault_orbits] promises: subsets in
   [Combinat.iter_subsets_up_to] order, the first unseen member of each
   orbit kept with the orbit's size. *)
let ref_fault_orbits g ~max_size =
  let seen = Hashtbl.create 4096 in
  let reps = ref [] in
  Combinat.iter_subsets_up_to (Auto.degree g) max_size (fun buf len ->
      let set = Array.sub buf 0 len in
      if not (Hashtbl.mem seen set) then begin
        let members = ref_orbit g set in
        List.iter (fun s -> Hashtbl.replace seen s ()) members;
        reps := (Array.to_list set, List.length members) :: !reps
      end);
  List.rev !reps

(* The groups the oracle runs on: the clique-core families' groups of
   order 32, 240 and 1,440, the circulant G(25,4)'s order-2 reversal,
   and induced actions on mixed node+link universes: G(1,3)'s 26
   points, and G(3,6)'s 69 and G(25,4)'s 131, wider than one bitmask
   band of the scans. *)
type subject = {
  label : string;
  group : Auto.group;
  max_size : int;
  is_element : int array -> bool;
      (* whether a permutation of the group's points is a symmetry of the
         underlying graph (acting on links, for the mixed universe) *)
}

let node_subject label inst =
  {
    label;
    group = Instance.symmetry inst;
    max_size = inst.Instance.k;
    is_element = Auto.is_automorphism inst.Instance.graph;
  }

let mixed_subject label inst ~max_size =
  let model = Fault_model.mixed inst in
  let n = Instance.order inst in
  let acts_on_links p =
    let ok = ref true in
    for i = n to Fault_model.size model - 1 do
      match Fault_model.element model i with
      | Fault_model.Link (u, v) ->
        let a, b = (p.(u), p.(v)) in
        let image = Fault_model.Link (min a b, max a b) in
        if Fault_model.index_of model image <> Some p.(i) then ok := false
      | _ -> ok := false
    done;
    !ok
  in
  {
    label;
    group = Fault_model.induced_symmetry model (Instance.symmetry inst);
    max_size;
    is_element =
      (fun p ->
        Auto.is_automorphism inst.Instance.graph (Array.sub p 0 n)
        && acts_on_links p);
  }

let subjects =
  lazy
    [
      node_subject "G(3,5)" (Small_n.g3 ~k:5);
      node_subject "G(2,5)" (Small_n.g2 ~k:5);
      node_subject "G(1,5)" (Small_n.g1 ~k:5);
      node_subject "G(25,4)" (Family.build ~n:25 ~k:4);
      mixed_subject "mixed G(1,3)" (Small_n.g1 ~k:3) ~max_size:3;
      mixed_subject "mixed G(3,6)" (Family.build ~n:3 ~k:6) ~max_size:3;
      mixed_subject "mixed G(25,4)" (Family.build ~n:25 ~k:4) ~max_size:2;
    ]

(* A random set of distinct points, of size up to one past the bound. *)
let random_set rng s =
  let d = Auto.degree s.group in
  let size = Random.State.int rng (Stdlib.min d (s.max_size + 1) + 1) in
  let chosen = Array.make d false and acc = ref [] in
  while List.length !acc < size do
    let v = Random.State.int rng d in
    if not chosen.(v) then begin
      chosen.(v) <- true;
      acc := v :: !acc
    end
  done;
  Array.of_list !acc

let scans_agree s set =
  let g = s.group in
  let sorted = List.sort compare (Array.to_list set) in
  let want = Array.to_list (ref_canonical g set) in
  let canon, transport = Auto.canonical_with_transport g set in
  let mapped p c = List.sort compare (List.map (fun v -> p.(v)) c) in
  let members = List.map Array.to_list (Auto.orbit_of_set g set) in
  Array.to_list (Auto.canonical_set g set) = want
  && Array.to_list canon = want
  && (match transport with
     | None -> want = sorted
     | Some p -> want <> sorted && s.is_element p && mapped p want = sorted)
  && List.hd members = sorted
  && List.sort compare members
     = List.sort compare (List.map Array.to_list (ref_orbit g set))

let test_scans_vs_reference =
  QCheck.Test.make ~count:40
    ~name:"table scans agree with the reference orbit walk"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun s -> List.for_all (fun _ -> scans_agree s (random_set rng s)) [ 1; 2; 3 ])
        (Lazy.force subjects))

let orbit_tests =
  [
    tc "orbit sizes partition the subset space" (fun () ->
        List.iter
          (fun inst ->
            let g = Instance.symmetry inst in
            let n = Instance.order inst in
            let k = inst.Instance.k in
            let reps = Auto.fault_orbits g ~max_size:k in
            let total =
              Array.fold_left (fun acc r -> acc + r.Auto.size) 0 reps
            in
            check Alcotest.int
              (inst.Instance.name ^ ": orbit sizes sum")
              (Combinat.count_up_to n k) total;
            (* Each representative is min-lex in its own orbit. *)
            Array.iter
              (fun r ->
                check
                  (Alcotest.list Alcotest.int)
                  (inst.Instance.name ^ ": rep canonical")
                  (Array.to_list r.Auto.set)
                  (Array.to_list (ref_canonical g r.Auto.set));
                check Alcotest.int
                  (inst.Instance.name ^ ": orbit size")
                  r.Auto.size
                  (List.length (ref_orbit g r.Auto.set)))
              reps)
          [ Small_n.g1 ~k:3; Small_n.g2 ~k:3; Small_n.g3 ~k:3 ]);
    tc "fault_orbits matches the reference enumeration" (fun () ->
        List.iter
          (fun s ->
            let got = Auto.fault_orbits s.group ~max_size:s.max_size in
            check
              (Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.int) Alcotest.int))
              (s.label ^ ": representatives and sizes")
              (ref_fault_orbits s.group ~max_size:s.max_size)
              (Array.to_list
                 (Array.map (fun r -> (Array.to_list r.Auto.set, r.Auto.size)) got)))
          (Lazy.force subjects));
    tc "frozen representative counts" (fun () ->
        (* Measured with the breadth-first orbit walk, before the element
           table, and frozen here. *)
        List.iter
          (fun (label, inst, reps) ->
            check Alcotest.int label reps
              (Array.length
                 (Auto.fault_orbits (Instance.symmetry inst)
                    ~max_size:inst.Instance.k)))
          [
            ("G(3,5)", Small_n.g3 ~k:5, 1_262);
            ("G(2,5)", Small_n.g2 ~k:5, 377);
            ("G(1,5)", Small_n.g1 ~k:5, 90);
            ("G(25,4)", Family.build ~n:25 ~k:4, 46_191);
          ]);
    tc "orbit queries reject a set that is not one" (fun () ->
        let g = Instance.symmetry (Small_n.g1 ~k:2) in
        Alcotest.check_raises "repeated point"
          (Invalid_argument "Auto.canonical_with_transport: repeated point")
          (fun () -> ignore (Auto.canonical_with_transport g [| 2; 2 |]));
        Alcotest.check_raises "out of range"
          (Invalid_argument "Auto.orbit_of_set: point out of range")
          (fun () -> ignore (Auto.orbit_of_set g [| Auto.degree g |])));
    QCheck_alcotest.to_alcotest test_scans_vs_reference;
    tc "image lists every element of the group once" (fun () ->
        List.iter
          (fun s ->
            let g = s.group and d = Auto.degree s.group in
            let elems =
              Array.init (Auto.order g) (fun e -> Array.init d (Auto.image g e))
            in
            check Alcotest.bool (s.label ^ ": element 0 is the identity") true
              (elems.(0) = Array.init d Fun.id);
            let table = Hashtbl.create (Array.length elems) in
            Array.iter
              (fun p ->
                if not (s.is_element p) then
                  Alcotest.failf "%s: an element is not a symmetry" s.label;
                if Hashtbl.mem table p then
                  Alcotest.failf "%s: an element is listed twice" s.label;
                Hashtbl.replace table p ())
              elems;
            (* closed under the generators, so the table is the group *)
            Array.iter
              (fun p ->
                List.iter
                  (fun q ->
                    if not (Hashtbl.mem table (Array.map (fun v -> q.(v)) p))
                    then Alcotest.failf "%s: table not closed" s.label)
                  (Auto.generators g))
              elems;
            Alcotest.check_raises "element out of range"
              (Invalid_argument "Auto.image: element or point out of range")
              (fun () -> ignore (Auto.image g (Auto.order g) 0)))
          (Lazy.force subjects));
    tc "trivial group enumerates every subset" (fun () ->
        let reps = Auto.fault_orbits (Auto.trivial 6) ~max_size:2 in
        check Alcotest.int "rep count" (Combinat.count_up_to 6 2)
          (Array.length reps);
        Array.iter
          (fun r -> check Alcotest.int "size 1" 1 r.Auto.size)
          reps);
    tc "restricted universe must be invariant" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let g = Instance.symmetry inst in
        (* The processor set is terminal-free and group-invariant... *)
        let procs = Array.of_list (Instance.processors inst) in
        check Alcotest.bool "processors invariant" true
          (Auto.invariant_universe g procs);
        ignore (Auto.fault_orbits ~universe:procs g ~max_size:2);
        (* ...but a singleton the group moves is not.  The group is
           nontrivial, so some generator displaces some node. *)
        let moved =
          List.find_map
            (fun p ->
              let rec scan v =
                if v >= Array.length p then None
                else if p.(v) <> v then Some v
                else scan (v + 1)
              in
              scan 0)
            (Auto.generators g)
        in
        match moved with
        | None -> Alcotest.fail "expected a nontrivial group"
        | Some v ->
          check Alcotest.bool "moved singleton not invariant" false
            (Auto.invariant_universe g [| v |]))
  ]

(* ------------------------------------------------------------------ *)
(* Orbit-reduced verification vs full enumeration                      *)
(* ------------------------------------------------------------------ *)

let overclaimed inst =
  Instance.make ~graph:inst.Instance.graph ~kind:inst.Instance.kind
    ~n:inst.Instance.n
    ~k:(inst.Instance.k + 2)
    ~name:(inst.Instance.name ^ "+2") ~strategy:Instance.Generic

let sorted_sets = List.sort compare

let agree label inst =
  let g = Instance.symmetry inst in
  let full = Verify.exhaustive ~max_failures:1_000_000 inst in
  let orbit = Verify.exhaustive ~max_failures:1_000_000 ~symmetry:g inst in
  check Alcotest.bool (label ^ ": verdict") (Verify.is_k_gd full)
    (Verify.is_k_gd orbit);
  check Alcotest.int (label ^ ": fault_sets_checked")
    full.Verify.fault_sets_checked orbit.Verify.fault_sets_checked;
  check Alcotest.int (label ^ ": gave_up") full.Verify.gave_up
    orbit.Verify.gave_up;
  check Alcotest.bool (label ^ ": fewer-or-equal solver calls") true
    (orbit.Verify.solver_calls <= full.Verify.solver_calls);
  let full_sets =
    sorted_sets (List.map (fun f -> f.Verify.faults) full.Verify.failures)
  in
  let orbit_sets =
    sorted_sets (Verify.expanded_failure_sets ~symmetry:g orbit)
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    (label ^ ": failure sets")
    full_sets orbit_sets

let verify_tests =
  [
    tc "healthy instances: orbit agrees with full" (fun () ->
        List.iter
          (fun inst -> agree inst.Instance.name inst)
          (List.concat_map
             (fun k -> [ Small_n.g1 ~k; Small_n.g2 ~k; Small_n.g3 ~k ])
             [ 1; 2; 3 ]
          @ [ Small_n.g3 ~k:5; Special.g62 () ]));
    tc "failing instances: orbit agrees with full" (fun () ->
        List.iter
          (fun inst ->
            let bad = overclaimed inst in
            agree bad.Instance.name bad;
            check Alcotest.bool "really fails" false
              (Verify.is_k_gd
                 (Verify.exhaustive ~symmetry:(Instance.symmetry bad) bad)))
          [ Small_n.g1 ~k:1; Small_n.g2 ~k:2; Small_n.g3 ~k:2 ]);
    tc "circulant: orbit agrees with full" (fun () ->
        agree "circulant" (Circulant_family.build ~n:18 ~k:4));
    tc "merged-terminal universe: orbit agrees with full" (fun () ->
        let inst = Small_n.g2 ~k:3 in
        let g = Instance.symmetry inst in
        let universe = Instance.processors inst in
        let full = Verify.exhaustive ~universe inst in
        let orbit = Verify.exhaustive ~universe ~symmetry:g inst in
        check Alcotest.bool "verdict" (Verify.is_k_gd full)
          (Verify.is_k_gd orbit);
        check Alcotest.int "checked" full.Verify.fault_sets_checked
          orbit.Verify.fault_sets_checked;
        check Alcotest.bool "reduced" true
          (orbit.Verify.solver_calls < full.Verify.solver_calls));
    tc "early stop under max_failures still rejects" (fun () ->
        let bad = overclaimed (Small_n.g2 ~k:2) in
        let r =
          Verify.exhaustive ~max_failures:1 ~symmetry:(Instance.symmetry bad)
            bad
        in
        check Alcotest.bool "not k-gd" false (Verify.is_k_gd r);
        check Alcotest.int "kept one" 1 (List.length r.Verify.failures));
    tc "degree mismatch is rejected" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let wrong = Auto.trivial (Instance.order inst + 1) in
        Alcotest.check_raises "bad degree"
          (Invalid_argument
             "Verify.exhaustive: symmetry group degree <> instance order")
          (fun () -> ignore (Verify.exhaustive ~symmetry:wrong inst)));
  ]

(* ------------------------------------------------------------------ *)
(* Domain-sharded orbit verification                                   *)
(* ------------------------------------------------------------------ *)

let parallel_tests =
  [
    tc "parallel orbit report equals sequential, field for field" (fun () ->
        List.iter
          (fun inst ->
            let g = Instance.symmetry inst in
            let seq = Testutil.reference_exhaustive ~symmetry:g inst in
            let par =
              Engine.Parallel.verify_exhaustive ~domains:3 ~symmetry:g inst
            in
            if seq <> par then
              Alcotest.failf "%s: parallel report differs"
                inst.Instance.name)
          [
            Small_n.g1 ~k:3;
            Small_n.g3 ~k:4;
            overclaimed (Small_n.g2 ~k:2);
          ]);
    tc "parallel early stop matches sequential" (fun () ->
        let bad = overclaimed (Small_n.g1 ~k:2) in
        let g = Instance.symmetry bad in
        let seq =
          Testutil.reference_exhaustive ~max_failures:2 ~symmetry:g bad
        in
        let par =
          Engine.Parallel.verify_exhaustive ~max_failures:2 ~domains:4
            ~symmetry:g bad
        in
        if seq <> par then Alcotest.fail "early-stop reports differ");
  ]

(* ------------------------------------------------------------------ *)
(* Orbit-compressed certificates                                       *)
(* ------------------------------------------------------------------ *)

(* A certificate through the engine's cached solver, with the
   instance's own group or none. *)
let certificate ?(symmetry = true) inst =
  let engine = Engine.create inst in
  Testutil.certificate
    ~solve:(fun ~faults -> Engine.solve engine ~faults)
    ?symmetry:(if symmetry then Some (Instance.symmetry inst) else None)
    (Fault_model.node inst)

let rejects label inst text =
  match Testutil.check_certificate inst text with
  | Ok _ -> Alcotest.failf "%s: accepted" label
  | Error e -> e

(* A certificate whose header carries [gens] in place of a group the
   writer computed: the writer trusts its group, the checker must not. *)
let with_generators inst gens =
  Testutil.certificate
    ~symmetry:(Auto.of_generators ~degree:(Instance.order inst) gens)
    (Fault_model.node inst)

(* A header and records joined back into a certificate. *)
let join header records = String.concat "" (header :: records)

let cert_tests =
  [
    tc "orbit certificate round-trips and counts the full space" (fun () ->
        List.iter
          (fun inst ->
            match Testutil.check_certificate inst (certificate inst) with
            | Ok n ->
              check Alcotest.int "covers every fault set"
                (Combinat.count_up_to (Instance.order inst) inst.Instance.k)
                n
            | Error e -> Alcotest.failf "%s: %s" inst.Instance.name e)
          [ Small_n.g1 ~k:3; Small_n.g3 ~k:3; Special.g62 () ]);
    tc "orbit certificate is smaller than flat" (fun () ->
        let inst = Small_n.g1 ~k:3 in
        let orbit = certificate inst in
        let flat = certificate ~symmetry:false inst in
        check Alcotest.bool "fewer bytes" true
          (String.length orbit < String.length flat);
        let _, records =
          Testutil.certificate_records ~order:(Instance.order inst) orbit
        in
        check Alcotest.int "one record per orbit"
          (Array.length
             (Auto.fault_orbits (Instance.symmetry inst) ~max_size:3))
          (List.length records));
    tc "trivial group is written flat" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        check Alcotest.bool "trivial group" true
          (Auto.is_trivial (Instance.symmetry inst));
        let cert = certificate inst in
        check Alcotest.string "same bytes as no group"
          (certificate ~symmetry:false inst)
          cert;
        match Testutil.check_certificate inst cert with
        | Ok n ->
          check Alcotest.int "every set"
            (Combinat.count_up_to (Instance.order inst) 2)
            n
        | Error e -> Alcotest.fail e);
    tc "tampered orbit certificates are rejected" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let order = Instance.order inst in
        let cert = certificate inst in
        let header, records = Testutil.certificate_records ~order cert in
        (* {0} (one fault, gap 0) with the empty set's witness, which
           runs through node 0 *)
        let r0 = List.hd records in
        let forged = "\001\000" ^ String.sub r0 1 (String.length r0 - 1) in
        let e =
          rejects "forged witness" inst
            (join header
               (List.mapi (fun i r -> if i = 1 then forged else r) records))
        in
        check Alcotest.bool "names the witness" true
          (Testutil.contains_substring e "witness for {0}");
        (* every generator replaced by the identity (node ids below 128
           are one byte each): the group is trivial, so the checker
           expects a flat certificate *)
        let ngens = List.length (Auto.generators (Instance.symmetry inst)) in
        let identities =
          String.sub header 0 (String.length header - (ngens * order))
          ^ String.concat ""
              (List.init ngens (fun _ -> String.init order Char.chr))
        in
        ignore (rejects "forged generator" inst (join identities records));
        let e = rejects "cross-instance" (Small_n.g2 ~k:2) cert in
        check Alcotest.bool "names the mismatch" true
          (Testutil.contains_substring e "different instance"));
    tc "generators must be solvability-preserving automorphisms" (fun () ->
        let inst = Small_n.g1 ~k:2 in
        let g = inst.Instance.graph in
        let swap a b =
          Array.init (Instance.order inst) (fun v ->
              if v = a then b else if v = b then a else v)
        in
        let input = List.hd (Instance.inputs inst) in
        let proc = List.hd (Instance.processors inst) in
        (* the input and the output hanging off the same processor: an
           automorphism, but it swaps one pair, not the classes *)
        let output =
          List.find
            (fun o -> Graph.adjacent g o (Graph.neighbours g input).(0))
            (Instance.outputs inst)
        in
        check Alcotest.bool "the swap is an automorphism" true
          (Auto.is_automorphism g (swap input output));
        List.iter
          (fun (label, p) ->
            let e = rejects label inst (with_generators inst [ p ]) in
            check Alcotest.bool (label ^ ": names the generator") true
              (Testutil.contains_substring e "generator"))
          [
            ("not an automorphism", swap input proc);
            ("mixes node kinds", swap input output);
          ]);
    tc "records dropped, repeated or swapped are checked: order is free"
      (fun () ->
        let inst = Special.g62 () in
        let cert = certificate inst in
        let header, records =
          Testutil.certificate_records ~order:(Instance.order inst) cert
        in
        let records = Array.of_list records in
        let n = Array.length records in
        (* the records at positions [f 0 .. f (len-1)] *)
        let pick len f = join header (List.init len (fun j -> records.(f j))) in
        check Alcotest.string "the split is lossless" cert (pick n Fun.id);
        for i = 0 to n - 1 do
          ignore
            (rejects "dropped" inst
               (pick (n - 1) (fun j -> if j < i then j else j + 1)));
          let e =
            rejects "repeated" inst
              (pick (n + 1) (fun j -> if j <= i then j else j - 1))
          in
          check Alcotest.bool ("repeated: " ^ e) true
            (Testutil.contains_substring e "certified twice")
        done;
        (* a certificate no longer encodes an order *)
        for i = 0 to n - 2 do
          match
            Testutil.check_certificate inst
              (pick n (fun j ->
                   if j = i then i + 1 else if j = i + 1 then i else j))
          with
          | Ok count -> check Alcotest.int "swapped: same count" 106 count
          | Error e -> Alcotest.failf "swapped records %d, %d: %s" i (i + 1) e
        done;
        (match Testutil.check_certificate inst (pick n (fun j -> n - 1 - j)) with
        | Ok count -> check Alcotest.int "reversed: same count" 106 count
        | Error e -> Alcotest.failf "reversed records: %s" e);
        ignore (rejects "trailing bytes" inst (cert ^ "\000")));
    tc "a record for another member of its orbit is rejected" (fun () ->
        (* every varint of a G(6,2) record is one byte: the set's size,
           its gaps, the witness length, the witness's nodes *)
        let inst = Special.g62 () in
        let g = Instance.symmetry inst in
        check Alcotest.int "group order" 2 (Auto.order g);
        let cert = certificate inst in
        let header, records =
          Testutil.certificate_records ~order:(Instance.order inst) cert
        in
        let bytes r = List.init (String.length r) (fun i -> Char.code r.[i]) in
        let decode r =
          match bytes r with
          | len :: rest ->
            let set = Array.make len 0 in
            List.iteri
              (fun i gap ->
                if i < len then
                  set.(i) <- (if i = 0 then gap else set.(i - 1) + 1 + gap))
              rest;
            (set, List.tl (List.filteri (fun i _ -> i >= len) rest))
          | [] -> Alcotest.fail "empty record"
        in
        let encode set nodes =
          let len = Array.length set in
          String.init
            (1 + len + 1 + List.length nodes)
            (fun i ->
              Char.chr
                (if i = 0 then len
                 else if i <= len then
                   if i = 1 then set.(0) else set.(i - 1) - set.(i - 2) - 1
                 else if i = len + 1 then List.length nodes
                 else List.nth nodes (i - len - 2)))
        in
        check Alcotest.bool "the record codec round-trips" true
          (List.for_all
             (fun r ->
               let set, nodes = decode r in
               encode set nodes = r)
             records);
        (* a record whose set the group moves: its image, with the
           witness carried along, is valid for that member but is not
           the orbit's least member *)
        let i, moved =
          let rec find i = function
            | r :: rest ->
              let set, nodes = decode r in
              let image = Array.map (Auto.image g 1) set in
              Array.sort compare image;
              if image <> set then
                (i, encode image (List.map (Auto.image g 1) nodes))
              else find (i + 1) rest
            | [] -> Alcotest.fail "no record moves under the group"
          in
          find 0 records
        in
        let e =
          rejects "another member" inst
            (join header
               (List.mapi (fun j r -> if j = i then moved else r) records))
        in
        check Alcotest.bool ("names the orbit: " ^ e) true
          (Testutil.contains_substring e "least member of its orbit");
        ignore
          (rejects "two records of one orbit" inst
             (join header (records @ [ moved ]))));
    tc "every truncation and bit flip of G(6,2) is rejected" (fun () ->
        let inst = Special.g62 () in
        let cert = certificate inst in
        (match Testutil.check_certificate inst cert with
        | Ok n -> check Alcotest.int "the intact certificate" 106 n
        | Error e -> Alcotest.fail e);
        for len = 0 to String.length cert - 1 do
          ignore
            (rejects (Printf.sprintf "prefix of %d bytes" len) inst
               (String.sub cert 0 len))
        done;
        String.iteri
          (fun i c ->
            for bit = 0 to 7 do
              let b = Bytes.of_string cert in
              Bytes.set b i (Char.chr (Char.code c lxor (1 lsl bit)));
              ignore
                (rejects (Printf.sprintf "byte %d bit %d flipped" i bit) inst
                   (Bytes.to_string b))
            done)
          cert);
    tc "older formats are refused by version" (fun () ->
        let inst = Small_n.g3 ~k:2 in
        let digest = Certify.digest inst in
        List.iter
          (fun (version, text) ->
            let e = rejects ("format " ^ version) inst text in
            check Alcotest.bool ("names format " ^ version) true
              (Testutil.contains_substring e ("format " ^ version)))
          [
            ( "1",
              Printf.sprintf "gdpn-cert 1\ninstance %s\nsets 67\nw |5 0 3 4\n"
                digest );
            ("4", "gdpn-cert 4\n\001\032" ^ digest ^ "\067");
            ("5", "gdpn-cert 5\n\032" ^ digest ^ "\004node\000\000");
          ]);
  ]

let () =
  Alcotest.run "gdpn-auto"
    [
      ("group", group_tests);
      ("orbits", orbit_tests);
      ("verify", verify_tests);
      ("parallel", parallel_tests);
      ("certify", cert_tests);
    ]
