(* Broad property-based coverage: invariants of the graph substrate, the
   constructions, the solvers and the signal kernels under randomly
   generated inputs.  Complements the example-based suites; everything here
   is a law that must hold for all inputs, not a sampled behaviour. *)

open Gdpn_core
module Graph = Gdpn_graph.Graph
module Builder = Gdpn_graph.Builder
module Bitset = Gdpn_graph.Bitset
module Connectivity = Gdpn_graph.Connectivity
module Stage = Gdpn_faultsim.Stage
module Stream = Gdpn_faultsim.Stream

let to_alcotest = List.map QCheck_alcotest.to_alcotest

(* Shared generators ------------------------------------------------- *)

let random_graph_gen ~max_n ~p =
  QCheck.Gen.(
    pair (int_range 1 max_n) int >|= fun (n, seed) ->
    let rng = Random.State.make [| seed; 101 |] in
    let b = Graph.builder n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.float rng 1.0 < p then Graph.add_edge b u v
      done
    done;
    Graph.freeze b)

let graph_arb ~max_n ~p =
  QCheck.make ~print:(Fmt.to_to_string Graph.pp) (random_graph_gen ~max_n ~p)

let frame_gen =
  QCheck.Gen.(
    pair (int_range 1 64) int >|= fun (len, seed) ->
    let rng = Random.State.make [| seed; 103 |] in
    Array.init len (fun _ -> Random.State.float rng 2.0 -. 1.0))

let frame_arb =
  QCheck.make
    ~print:(fun a -> Printf.sprintf "[%d floats]" (Array.length a))
    frame_gen

(* Connectivity ------------------------------------------------------ *)

let connectivity_props =
  let open QCheck in
  [
    Test.make ~name:"components partition the alive set" ~count:200
      (pair (graph_arb ~max_n:20 ~p:0.2) (list (int_bound 19)))
      (fun (g, dead) ->
        let n = Graph.order g in
        let alive = Bitset.full n in
        List.iter (fun v -> if v < n then Bitset.remove alive v) dead;
        let comps = Connectivity.components g ~alive in
        let all = List.concat comps in
        List.sort compare all = Bitset.elements alive
        && List.length all = List.length (List.sort_uniq compare all));
    Test.make ~name:"each component is internally connected and maximal"
      ~count:100
      (graph_arb ~max_n:14 ~p:0.25)
      (fun g ->
        let n = Graph.order g in
        let alive = Bitset.full n in
        let comps = Connectivity.components g ~alive in
        List.for_all
          (fun comp ->
            let mask = Bitset.of_list n comp in
            Connectivity.connected_within g ~alive:mask)
          comps);
    Test.make ~name:"removing an articulation point disconnects" ~count:150
      (graph_arb ~max_n:14 ~p:0.25)
      (fun g ->
        let n = Graph.order g in
        let alive = Bitset.full n in
        QCheck.assume (Connectivity.connected_within g ~alive && n > 2);
        let aps = Connectivity.articulation_points g ~alive in
        Bitset.fold
          (fun v acc ->
            let without = Bitset.full n in
            Bitset.remove without v;
            acc && not (Connectivity.connected_within g ~alive:without))
          aps true);
    Test.make ~name:"non-articulation removal keeps connectivity" ~count:150
      (graph_arb ~max_n:14 ~p:0.3)
      (fun g ->
        let n = Graph.order g in
        let alive = Bitset.full n in
        QCheck.assume (Connectivity.connected_within g ~alive && n > 1);
        let aps = Connectivity.articulation_points g ~alive in
        List.for_all
          (fun v ->
            Bitset.mem aps v
            ||
            let without = Bitset.full n in
            Bitset.remove without v;
            Connectivity.connected_within g ~alive:without)
          (List.init n Fun.id));
  ]

(* Constructions ----------------------------------------------------- *)

let construction_props =
  let open QCheck in
  [
    Test.make ~name:"family instances are standard with the right counts"
      ~count:100
      (pair (int_range 1 14) (int_range 1 3))
      (fun (n, k) ->
        let inst = Family.build ~n ~k in
        Instance.is_standard inst
        && List.length (Instance.inputs inst) = k + 1
        && List.length (Instance.outputs inst) = k + 1
        && List.length (Instance.processors inst) = n + k
        && Instance.order inst = n + (3 * k) + 2);
    Test.make ~name:"circulant family: structure for random (n, k >= 4)"
      ~count:60
      (pair (int_range 4 8) int)
      (fun (k, seed) ->
        let rng = Random.State.make [| seed; 107 |] in
        let n = Circulant_family.min_n ~k + Random.State.int rng 40 in
        let inst = Circulant_family.build ~n ~k in
        Instance.is_standard inst
        && Instance.order inst = n + (3 * k) + 2
        && Bounds.is_degree_optimal inst
        && Bounds.lemma_3_1_holds inst
        && Bounds.lemma_3_4_holds inst);
    Test.make ~name:"every bound lemma holds on every family instance"
      ~count:80
      (pair (int_range 1 12) (int_range 1 3))
      (fun (n, k) ->
        let inst = Family.build ~n ~k in
        Bounds.lemma_3_1_holds inst && Bounds.lemma_3_4_holds inst);
    Test.make ~name:"merge keeps processor count and drops terminals to 2"
      ~count:60
      (pair (int_range 1 10) (int_range 1 3))
      (fun (n, k) ->
        let inst = Family.build ~n ~k in
        let m = Merge.apply inst in
        List.length (Instance.processors m) = n + k
        && Instance.order m = n + k + 2);
    Test.make ~name:"serialization roundtrips arbitrary relabeled instances"
      ~count:80
      (triple (int_range 1 8) (int_range 1 3) int)
      (fun (n, k, seed) ->
        let inst = Family.build ~n ~k in
        let rng = Random.State.make [| seed; 109 |] in
        let order = Instance.order inst in
        let perm = Array.init order Fun.id in
        for i = order - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = perm.(i) in
          perm.(i) <- perm.(j);
          perm.(j) <- t
        done;
        let shuffled = Instance.relabel inst ~perm in
        match Serial.of_string (Serial.to_string shuffled) with
        | Ok back -> Graph.equal back.Instance.graph shuffled.Instance.graph
        | Error _ -> false);
  ]

(* Stage kernels ----------------------------------------------------- *)

let stage_props =
  let open QCheck in
  let close a b = Float.abs (a -. b) < 1e-6 in
  let arrays_close a b =
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> close x y) a b
  in
  [
    Test.make ~name:"gain is linear" ~count:200 (pair frame_arb (float_range (-4.0) 4.0))
      (fun (frame, g) ->
        arrays_close
          (Stage.apply (Stage.Gain g) frame)
          (Array.map (fun x -> g *. x) frame));
    Test.make ~name:"fir is linear in the input" ~count:150
      (pair frame_arb frame_arb)
      (fun (a, b) ->
        let len = min (Array.length a) (Array.length b) in
        let a = Array.sub a 0 len and b = Array.sub b 0 len in
        let coeffs = [| 0.25; 0.5; 0.25 |] in
        let sum = Array.init len (fun i -> a.(i) +. b.(i)) in
        let fa = Stage.apply (Stage.Fir coeffs) a in
        let fb = Stage.apply (Stage.Fir coeffs) b in
        let fsum = Stage.apply (Stage.Fir coeffs) sum in
        arrays_close fsum (Array.init len (fun i -> fa.(i) +. fb.(i))));
    Test.make ~name:"subsample output length law" ~count:200
      (pair frame_arb (int_range 1 7))
      (fun (frame, m) ->
        Array.length (Stage.apply (Stage.Subsample m) frame)
        = (Array.length frame + m - 1) / m);
    Test.make ~name:"quantize is idempotent" ~count:200
      (pair frame_arb (int_range 2 32))
      (fun (frame, levels) ->
        let q = Stage.Quantize levels in
        arrays_close (Stage.apply q frame) (Stage.apply q (Stage.apply q frame)));
    Test.make ~name:"median preserves monotone data away from the edges"
      ~count:100 (int_range 3 40)
      (fun len ->
        (* Edge windows are truncated, so only interior positions are
           guaranteed unchanged on monotone input. *)
        let frame = Array.init len float_of_int in
        let out = Stage.apply (Stage.Median 3) frame in
        let ok = ref true in
        for i = 1 to len - 2 do
          if not (close out.(i) frame.(i)) then ok := false
        done;
        !ok);
    Test.make ~name:"rle roundtrip: decoded pairs reproduce the frame"
      ~count:200 frame_arb
      (fun frame ->
        (* Quantize first so runs exist, then decode (value, count) pairs. *)
        let q = Stage.apply (Stage.Quantize 4) frame in
        let rle = Stage.apply Stage.Rle_compress q in
        let decoded = ref [] in
        let i = ref 0 in
        while !i + 1 < Array.length rle + 1 && !i < Array.length rle do
          let v = rle.(!i) and c = int_of_float rle.(!i + 1) in
          for _ = 1 to c do
            decoded := v :: !decoded
          done;
          i := !i + 2
        done;
        Array.of_list (List.rev !decoded) = q);
    Test.make ~name:"dct of gain-scaled input is gain-scaled dct" ~count:150
      (pair frame_arb (float_range (-3.0) 3.0))
      (fun (frame, g) ->
        let d = Stage.Dct 8 in
        arrays_close
          (Stage.apply d (Array.map (fun x -> g *. x) frame))
          (Array.map (fun x -> g *. x) (Stage.apply d frame)));
    Test.make ~name:"projection preserves total mass" ~count:200
      (pair frame_arb (int_range 1 8))
      (fun (frame, w) ->
        QCheck.assume (Array.length frame >= w);
        (* Sliding sums count interior samples w times... mass is preserved
           only for w = 1; instead check the documented length law and
           non-negativity of lengths. *)
        Array.length (Stage.apply (Stage.Projection_sum w) frame)
        = Array.length frame - w + 1);
  ]

(* Solver laws ------------------------------------------------------- *)

let solver_props =
  let open QCheck in
  [
    Test.make ~name:"solved pipelines survive Pipeline.validate" ~count:150
      (triple (int_range 1 10) (int_range 1 3) int)
      (fun (n, k, seed) ->
        let inst = Family.build ~n ~k in
        let order = Instance.order inst in
        let rng = Random.State.make [| seed; 113 |] in
        let faults =
          Bitset.of_list order
            (Array.to_list (Gdpn_graph.Combinat.sample_up_to rng order k))
        in
        match Reconfig.solve inst ~faults with
        | Reconfig.Pipeline p ->
          Result.is_ok (Pipeline.validate inst ~faults p.Pipeline.nodes)
        | Reconfig.No_pipeline | Reconfig.Gave_up -> false);
    Test.make ~name:"adding a fault never grows the pipeline" ~count:150
      (triple (int_range 2 10) (int_range 1 3) int)
      (fun (n, k, seed) ->
        let inst = Family.build ~n ~k in
        let order = Instance.order inst in
        let rng = Random.State.make [| seed; 127 |] in
        let f1 =
          Array.to_list (Gdpn_graph.Combinat.sample rng order (k - 1))
        in
        let extra =
          let rec fresh () =
            let v = Random.State.int rng order in
            if List.mem v f1 then fresh () else v
          in
          fresh ()
        in
        let len faults =
          match Reconfig.solve_list inst ~faults with
          | Reconfig.Pipeline p -> Pipeline.processor_count p
          | _ -> -1
        in
        let a = len f1 and b = len (extra :: f1) in
        a >= 0 && b >= 0 && b <= a);
    Test.make ~name:"repair results equal full-solve processor counts"
      ~count:100
      (triple (int_range 2 10) (int_range 1 3) int)
      (fun (n, k, seed) ->
        let inst = Family.build ~n ~k in
        let order = Instance.order inst in
        let rng = Random.State.make [| seed; 131 |] in
        let clean = Bitset.create order in
        match Reconfig.solve inst ~faults:clean with
        | Reconfig.Pipeline current ->
          let failed = Random.State.int rng order in
          let faults = Bitset.of_list order [ failed ] in
          (* A patch when one applies, a full solve otherwise. *)
          let repaired =
            match Repair.patch inst ~current ~faults ~failed with
            | Some (`Unchanged p | `Spliced p) -> Reconfig.Pipeline p
            | None -> Reconfig.solve inst ~faults
          in
          (match (repaired, Reconfig.solve inst ~faults) with
          | Reconfig.Pipeline p, Reconfig.Pipeline q ->
            Pipeline.processor_count p = Pipeline.processor_count q
          | _ -> false)
        | _ -> false);
  ]

(* Discrete-event laws --------------------------------------------- *)

let des_props =
  let open QCheck in
  let module Des = Gdpn_faultsim.Des in
  let module Machine = Gdpn_faultsim.Machine in
  [
    Test.make ~name:"DES conserves tokens and orders latencies sanely"
      ~count:40
      (triple (int_range 4 10) (int_range 1 2) (int_range 1 30))
      (fun (n, k, tokens) ->
        let inst = Family.build ~n ~k in
        let o =
          Des.simulate
            ~machine:(Machine.create inst)
            ~stages:(Stage.fir_bank 5)
            ~config:{ Des.default_config with arrival_period = 5000 }
            ~faults:[] ~tokens ()
        in
        o.Des.tokens_completed = tokens
        && Array.length o.Des.latencies = tokens
        && Array.for_all (fun l -> l > 0) o.Des.latencies
        && o.Des.max_latency
           = Array.fold_left max o.Des.latencies.(0) o.Des.latencies);
    Test.make ~name:"uncontended latency equals the sum of stage costs"
      ~count:30
      (pair (int_range 2 6) (int_range 5 20))
      (fun (stages_n, tokens) ->
        (* More processors than stages and slow arrivals: pure pipeline. *)
        let inst = Family.build ~n:9 ~k:2 in
        let stages = Stage.fir_bank stages_n in
        let cfg = { Des.default_config with arrival_period = 50_000 } in
        let o =
          Des.simulate
            ~machine:(Machine.create inst)
            ~stages ~config:cfg ~faults:[] ~tokens ()
        in
        let expected =
          List.fold_left
            (fun (acc, len) st ->
              (acc + Stage.cost st ~frame:len, Stage.output_length st len))
            (0, cfg.Des.frame_length) stages
          |> fst
        in
        Array.for_all (fun l -> l = expected) o.Des.latencies);
    Test.make ~name:"slower arrivals never increase any token's latency"
      ~count:30
      (pair (int_range 500 2000) (int_range 5 20))
      (fun (period, tokens) ->
        let inst = Family.build ~n:4 ~k:1 in
        let stages = Stage.fir_bank 6 in
        let run p =
          Des.simulate
            ~machine:(Machine.create inst)
            ~stages
            ~config:{ Des.default_config with arrival_period = p }
            ~faults:[] ~tokens ()
        in
        let fast = run period and slow = run (2 * period) in
        Array.for_all2 (fun a b -> b <= a) fast.Des.latencies
          slow.Des.latencies);
  ]

(* Pqueue ------------------------------------------------------------ *)

let pqueue_props =
  let open QCheck in
  (* An operation script: [Push key] or [Pop].  Keys are drawn from a
     small range so ties are frequent — the FIFO tie-break is the law
     under test. *)
  let ops_gen =
    Gen.(list_size (int_range 1 200) (oneof [
      map (fun k -> `Push k) (int_range 0 7);
      return `Pop;
    ]))
  in
  let ops_arb =
    make
      ~print:(fun ops ->
        String.concat " "
          (List.map
             (function `Push k -> Printf.sprintf "push%d" k | `Pop -> "pop")
             ops))
      ops_gen
  in
  [
    Test.make
      ~name:"pqueue pops min-key FIFO among equals under interleaved push/pop"
      ~count:500 ops_arb
      (fun ops ->
        let module Pqueue = Gdpn_graph.Pqueue in
        let q = Pqueue.create () in
        (* Reference model: a sorted association list of (key, seq, value)
           popped by (key, seq) — seq is global insertion order, so equal
           keys leave in insertion order. *)
        let model = ref [] in
        let seq = ref 0 in
        let ok = ref true in
        List.iter
          (fun op ->
            match op with
            | `Push k ->
              Pqueue.push q ~key:k !seq;
              model := (k, !seq) :: !model;
              incr seq
            | `Pop -> (
              let expected =
                match
                  List.sort compare !model
                with
                | [] -> None
                | ((k, s) as hd) :: _ ->
                  model := List.filter (fun x -> x <> hd) !model;
                  Some (k, s)
              in
              match (Pqueue.pop q, expected) with
              | None, None -> ()
              | Some (k, v), Some (k', v') ->
                if k <> k' || v <> v' then ok := false
              | Some _, None | None, Some _ -> ok := false))
          ops;
        (* Drain what's left: the tail must also come out in order. *)
        let rec drain () =
          match (Pqueue.pop q, List.sort compare !model) with
          | None, [] -> ()
          | Some (k, v), ((k', s') as hd) :: _ ->
            model := List.filter (fun x -> x <> hd) !model;
            if k <> k' || v <> s' then ok := false else drain ()
          | Some _, [] | None, _ :: _ -> ok := false
        in
        drain ();
        !ok && Pqueue.is_empty q);
  ]

let () =
  Alcotest.run "gdpn_properties"
    [
      ("connectivity", to_alcotest connectivity_props);
      ("constructions", to_alcotest construction_props);
      ("stages", to_alcotest stage_props);
      ("solvers", to_alcotest solver_props);
      ("des", to_alcotest des_props);
      ("pqueue", to_alcotest pqueue_props);
    ]
