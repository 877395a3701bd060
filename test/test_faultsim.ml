(* Tests for the stream-processing fault-injection simulator: stage
   kernels, signal sources, machine remapping, fault schedules and the
   simulation loop. *)

open Gdpn_faultsim
open Gdpn_core

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let float_eps = Alcotest.float 1e-9

let check_array name expected actual =
  check (Alcotest.array float_eps) name expected actual

(* ------------------------------------------------------------------ *)
(* Stage kernels                                                       *)
(* ------------------------------------------------------------------ *)

let stage_tests =
  [
    tc "fir identity" (fun () ->
        let out = Stage.apply (Stage.Fir [| 1.0 |]) [| 1.0; 2.0; 3.0 |] in
        check_array "unchanged" [| 1.0; 2.0; 3.0 |] out);
    tc "fir moving average" (fun () ->
        let out =
          Stage.apply (Stage.Fir [| 0.5; 0.5 |]) [| 2.0; 4.0; 6.0; 8.0 |]
        in
        (* First sample sees only itself (causal zero padding). *)
        check_array "averaged" [| 1.0; 3.0; 5.0; 7.0 |] out);
    tc "fir delay" (fun () ->
        let out = Stage.apply (Stage.Fir [| 0.0; 1.0 |]) [| 5.0; 6.0; 7.0 |] in
        check_array "delayed" [| 0.0; 5.0; 6.0 |] out);
    tc "iir accumulator" (fun () ->
        (* y[i] = x[i] + y[i-1]: running sum. *)
        let out =
          Stage.apply
            (Stage.Iir { b = [| 1.0 |]; a = [| -1.0 |] })
            [| 1.0; 1.0; 1.0; 1.0 |]
        in
        check_array "running sum" [| 1.0; 2.0; 3.0; 4.0 |] out);
    tc "subsample keeps every m-th" (fun () ->
        let out =
          Stage.apply (Stage.Subsample 2) [| 0.0; 1.0; 2.0; 3.0; 4.0 |]
        in
        check_array "even indices" [| 0.0; 2.0; 4.0 |] out);
    tc "subsample rejects zero" (fun () ->
        Alcotest.check_raises "m=0"
          (Invalid_argument "Stage.apply: subsample factor must be >= 1")
          (fun () -> ignore (Stage.apply (Stage.Subsample 0) [| 1.0 |])));
    tc "rescale identity ratio" (fun () ->
        let input = [| 1.0; 5.0; 9.0 |] in
        let out = Stage.apply (Stage.Rescale { num = 1; den = 1 }) input in
        check_array "unchanged" input out);
    tc "rescale upsampling interpolates" (fun () ->
        let out =
          Stage.apply (Stage.Rescale { num = 2; den = 1 }) [| 0.0; 2.0 |]
        in
        check Alcotest.int "length doubles" 4 (Array.length out);
        check float_eps "first" 0.0 out.(0);
        check float_eps "midpoint interpolated" 1.0 out.(1);
        check float_eps "second sample" 2.0 out.(2));
    tc "rescale downsampling halves length" (fun () ->
        let out =
          Stage.apply
            (Stage.Rescale { num = 1; den = 2 })
            [| 0.0; 1.0; 2.0; 3.0 |]
        in
        check Alcotest.int "length" 2 (Array.length out);
        check float_eps "stride 2" 2.0 out.(1));
    tc "gain scales" (fun () ->
        check_array "x3"
          [| 3.0; -6.0 |]
          (Stage.apply (Stage.Gain 3.0) [| 1.0; -2.0 |]));
    tc "quantize to levels" (fun () ->
        let out =
          Stage.apply (Stage.Quantize 3) [| 0.0; 0.2; 0.6; 1.0 |]
        in
        (* 3 levels: grid {0, 0.5, 1}. *)
        check_array "snapped" [| 0.0; 0.0; 0.5; 1.0 |] out);
    tc "rle compresses runs" (fun () ->
        let out =
          Stage.apply Stage.Rle_compress [| 7.0; 7.0; 7.0; 1.0; 1.0 |]
        in
        check_array "(value, count) pairs" [| 7.0; 3.0; 1.0; 2.0 |] out);
    tc "rle of empty frame" (fun () ->
        check_array "empty" [||] (Stage.apply Stage.Rle_compress [||]));
    tc "projection sums windows" (fun () ->
        let out =
          Stage.apply (Stage.Projection_sum 2) [| 1.0; 2.0; 3.0; 4.0 |]
        in
        check_array "sliding sums" [| 3.0; 5.0; 7.0 |] out);
    tc "projection wider than frame collapses to total" (fun () ->
        let out = Stage.apply (Stage.Projection_sum 10) [| 1.0; 2.0 |] in
        check_array "grand total" [| 3.0 |] out);
    tc "median removes an impulse" (fun () ->
        let out =
          Stage.apply (Stage.Median 3) [| 1.0; 1.0; 9.0; 1.0; 1.0 |]
        in
        check_array "impulse gone" [| 1.0; 1.0; 1.0; 1.0; 1.0 |] out);
    tc "median requires odd width" (fun () ->
        Alcotest.check_raises "even"
          (Invalid_argument "Stage.apply: median width must be odd and positive")
          (fun () -> ignore (Stage.apply (Stage.Median 4) [| 1.0 |])));
    tc "dct of a constant block concentrates in DC" (fun () ->
        let out = Stage.apply (Stage.Dct 4) (Array.make 4 1.0) in
        check float_eps "DC = sum" 4.0 out.(0);
        for u = 1 to 3 do
          check Alcotest.bool
            (Printf.sprintf "AC %d ~ 0" u)
            true
            (Float.abs out.(u) < 1e-9)
        done);
    tc "dct preserves block energy ratios (Parseval-ish)" (fun () ->
        (* DCT-II with this normalisation satisfies
           sum y² = N/2 * sum x² + (DC adjustment); just check it is a
           linear bijection on a block: applying to two different inputs
           gives different outputs. *)
        let a = Stage.apply (Stage.Dct 8) (Array.init 8 float_of_int) in
        let b = Stage.apply (Stage.Dct 8) (Array.init 8 (fun i -> float_of_int (7 - i))) in
        check Alcotest.bool "distinguishes inputs" true (a <> b));
    tc "output_length matches apply for every kernel" (fun () ->
        let frame = Array.init 37 (fun i -> float_of_int (i mod 5)) in
        List.iter
          (fun st ->
            match st with
            | Stage.Rle_compress -> () (* worst-cased, not exact *)
            | _ ->
              check Alcotest.int (Stage.name st)
                (Array.length (Stage.apply st frame))
                (Stage.output_length st (Array.length frame)))
          [ Stage.Fir [| 0.5; 0.5 |]; Stage.Subsample 3;
            Stage.Rescale { num = 2; den = 3 }; Stage.Gain 0.5;
            Stage.Quantize 4; Stage.Projection_sum 5; Stage.Median 3;
            Stage.Dct 8; Stage.Iir { b = [| 1.0 |]; a = [| -0.5 |] } ]);
    tc "state sizes: filters carry state, pointwise stages do not" (fun () ->
        check Alcotest.int "fir 4 taps" 3 (Stage.state_size (Stage.Fir (Array.make 4 0.25)));
        check Alcotest.int "fir 1 tap" 0 (Stage.state_size (Stage.Fir [| 1.0 |]));
        check Alcotest.int "iir" 2
          (Stage.state_size (Stage.Iir { b = [| 0.3; 0.3 |]; a = [| -0.4 |] }));
        List.iter
          (fun st -> check Alcotest.int (Stage.name st) 0 (Stage.state_size st))
          [ Stage.Subsample 2; Stage.Gain 2.0; Stage.Quantize 4;
            Stage.Rle_compress; Stage.Projection_sum 3;
            Stage.Rescale { num = 1; den = 2 } ]);
    tc "migration of stateful stages lengthens the DES stall" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let proc = List.nth (Instance.processors inst) 3 in
        let run stages =
          let cfg =
            { Des.default_config with arrival_period = 6000;
              migration_cost_per_word = 100 }
          in
          (Des.simulate
             ~machine:(Machine.create ~local_repair:false inst)
             ~stages ~config:cfg
             ~faults:[ (60_000, proc) ]
             ~tokens:30 ())
            .Des.stall_time
        in
        (* Same chain shape, but heavy 8-tap filters vs stateless gains. *)
        let stateful = List.init 6 (fun _ -> Stage.Fir (Array.make 8 0.125)) in
        let stateless = List.init 6 (fun _ -> Stage.Gain 1.01) in
        check Alcotest.bool "stateful migration costs more" true
          (run stateful >= run stateless));
    tc "costs are positive and scale with frame" (fun () ->
        List.iter
          (fun st ->
            let c1 = Stage.cost st ~frame:64 in
            let c2 = Stage.cost st ~frame:128 in
            check Alcotest.bool (Stage.name st) true (c1 > 0 && c2 >= c1))
          (Stage.video_codec () @ Stage.ct_reconstruction () @ Stage.fir_bank 4));
    tc "workload chains are non-trivial" (fun () ->
        check Alcotest.int "video stages" 5 (List.length (Stage.video_codec ()));
        check Alcotest.int "ct stages" 4
          (List.length (Stage.ct_reconstruction ()));
        check Alcotest.int "fir bank length" 7
          (List.length (Stage.fir_bank 7)));
  ]

(* ------------------------------------------------------------------ *)
(* Stream                                                              *)
(* ------------------------------------------------------------------ *)

let stream_tests =
  [
    tc "prng is deterministic and bounded" (fun () ->
        let a = Stream.Prng.create 1 and b = Stream.Prng.create 1 in
        for _ = 1 to 100 do
          check Alcotest.int "same sequence" (Stream.Prng.int a 1000)
            (Stream.Prng.int b 1000)
        done;
        let rng = Stream.Prng.create 2 in
        for _ = 1 to 1000 do
          let v = Stream.Prng.int rng 7 in
          check Alcotest.bool "in range" true (v >= 0 && v < 7);
          let f = Stream.Prng.float rng 1.0 in
          check Alcotest.bool "float in range" true (f >= 0.0 && f <= 1.0)
        done);
    tc "prng int has no modulo bias (uniformity regression)" (fun () ->
        (* With bound = 2/3 of the generator range, the old [next mod
           bound] mapped roughly 2/3 of all draws below [max_int - bound]
           (those residues get two preimages); an unbiased generator puts
           exactly 1/2 of its mass there.  10_000 draws put the biased
           fraction 30+ standard errors away from 0.5, so this cannot
           flap. *)
        let bound = max_int / 3 * 2 in
        let threshold = max_int - bound in
        let rng = Stream.Prng.create 271828 in
        let draws = 10_000 in
        let below = ref 0 in
        for _ = 1 to draws do
          if Stream.Prng.int rng bound < threshold then incr below
        done;
        let frac = float_of_int !below /. float_of_int draws in
        check Alcotest.bool
          (Printf.sprintf "fraction %.3f should be ~0.5, not ~0.667" frac)
          true
          (frac > 0.45 && frac < 0.55));
    tc "prng float stays strictly below its bound" (fun () ->
        let rng = Stream.Prng.create 31337 in
        for _ = 1 to 10_000 do
          let f = Stream.Prng.float rng 1.0 in
          check Alcotest.bool "in [0, 1)" true (f >= 0.0 && f < 1.0)
        done;
        Alcotest.check_raises "bound 0 rejected"
          (Invalid_argument "Prng.float: bound must be positive") (fun () ->
            ignore (Stream.Prng.float rng 0.0)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"prng int is bounded for any seed and bound"
         ~count:200
         QCheck.(pair int (int_range 1 1_000_000))
         (fun (seed, bound) ->
           let rng = Stream.Prng.create seed in
           List.for_all
             (fun v -> v >= 0 && v < bound)
             (List.init 50 (fun _ -> Stream.Prng.int rng bound))));
    tc "prng split decorrelates" (fun () ->
        let a = Stream.Prng.create 3 in
        let b = Stream.Prng.split a in
        let xs = List.init 50 (fun _ -> Stream.Prng.int a 1_000_000) in
        let ys = List.init 50 (fun _ -> Stream.Prng.int b 1_000_000) in
        check Alcotest.bool "different streams" true (xs <> ys));
    tc "sine mixture is deterministic across frames" (fun () ->
        let src = Stream.Sine_mixture [ (0.01, 1.0); (0.05, 0.3) ] in
        let f0 = Stream.frame src ~length:16 ~index:0 in
        let f0' = Stream.frame src ~length:16 ~index:0 in
        check (Alcotest.array float_eps) "reproducible" f0 f0';
        let f1 = Stream.frame src ~length:16 ~index:1 in
        check Alcotest.bool "frames differ" true (f0 <> f1));
    tc "step source alternates" (fun () ->
        let f =
          Stream.frame (Stream.Step { period = 2; high = 5.0 }) ~length:8
            ~index:0
        in
        check (Alcotest.array float_eps) "square wave"
          [| 5.0; 5.0; 0.0; 0.0; 5.0; 5.0; 0.0; 0.0 |]
          f);
    tc "white noise needs rng and respects amplitude" (fun () ->
        Alcotest.check_raises "no rng"
          (Invalid_argument "Stream.frame: White_noise needs ~rng") (fun () ->
            ignore (Stream.frame (Stream.White_noise 1.0) ~length:4 ~index:0));
        let rng = Stream.Prng.create 4 in
        let f =
          Stream.frame ~rng (Stream.White_noise 0.5) ~length:256 ~index:0
        in
        Array.iter
          (fun x -> check Alcotest.bool "bounded" true (Float.abs x <= 0.5))
          f);
    tc "frames helper is seed-deterministic" (fun () ->
        let run () =
          Stream.frames ~seed:9 (Stream.White_noise 1.0) ~length:32 ~count:4
        in
        check Alcotest.bool "reproducible" true (run () = run ()));
  ]

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let machine_tests =
  [
    tc "fresh machine embeds the full pipeline" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let m = Machine.create inst in
        check Alcotest.int "no faults" 0 (Machine.fault_count m);
        check Alcotest.int "all processors healthy" 11
          (Machine.healthy_processor_count m);
        check Alcotest.int "all used" 11 (Machine.used_processor_count m);
        check float_eps "utilization 1" 1.0 (Machine.utilization m));
    tc "inject remaps and keeps utilization 1 within k" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let m = Machine.create inst in
        let p0 = List.nth (Instance.processors inst) 0 in
        (match Machine.inject m p0 with
        | Machine.Remapped p ->
          check Alcotest.int "pipeline shrinks" 10 (Pipeline.processor_count p)
        | _ -> Alcotest.fail "expected remap");
        check float_eps "still fully utilized" 1.0 (Machine.utilization m);
        check Alcotest.int "one remap" 1 (Machine.remap_count m));
    tc "double injection is Unchanged" (fun () ->
        let inst = Family.build ~n:4 ~k:2 in
        let m = Machine.create inst in
        ignore (Machine.inject m 0);
        (match Machine.inject m 0 with
        | Machine.Unchanged -> ()
        | _ -> Alcotest.fail "expected Unchanged");
        check Alcotest.int "still one fault" 1 (Machine.fault_count m));
    tc "overload can lose the pipeline" (fun () ->
        let inst = Family.build ~n:1 ~k:1 in
        let m = Machine.create inst in
        (* Both input terminals (ids 2 and 3 in G(1,1)): beyond spec. *)
        ignore (Machine.inject m 2);
        (match Machine.inject m 3 with
        | Machine.Lost -> ()
        | _ -> Alcotest.fail "expected Lost");
        check (Alcotest.option Alcotest.bool) "no pipeline" None
          (Option.map (fun _ -> true) (Machine.pipeline m));
        check float_eps "utilization zero" 0.0 (Machine.utilization m));
    tc "faults are recorded in injection order" (fun () ->
        let inst = Family.build ~n:6 ~k:2 in
        let m = Machine.create inst in
        ignore (Machine.inject m 3);
        ignore (Machine.inject m 1);
        check (Alcotest.list Alcotest.int) "order" [ 3; 1 ] (Machine.faults m));
    tc "out of range rejected" (fun () ->
        let inst = Family.build ~n:4 ~k:1 in
        let m = Machine.create inst in
        Alcotest.check_raises "range"
          (Invalid_argument "Machine.inject: node out of range") (fun () ->
            ignore (Machine.inject m 999)));
  ]

(* ------------------------------------------------------------------ *)
(* Injector                                                            *)
(* ------------------------------------------------------------------ *)

let injector_tests =
  [
    tc "random schedules respect count and range" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let rng = Stream.Prng.create 5 in
        let s = Injector.random ~rng inst ~count:2 ~rounds:100 in
        check Alcotest.int "count" 2 (List.length s);
        List.iter
          (fun ev ->
            check Alcotest.bool "round in range" true
              (ev.Injector.round >= 0 && ev.Injector.round < 100);
            check Alcotest.bool "node in range" true
              (ev.Injector.node >= 0 && ev.Injector.node < Instance.order inst))
          s;
        (* distinct nodes *)
        let nodes = List.map (fun e -> e.Injector.node) s in
        check Alcotest.int "distinct" (List.length nodes)
          (List.length (List.sort_uniq compare nodes)));
    tc "sort_schedule breaks same-round ties by node (replay stability)"
      (fun () ->
        (* [List.sort] on round alone leaves same-round order unspecified,
           so two builds of the same schedule could replay faults in
           different orders.  The total (round, node) key has exactly one
           valid order — any permutation must normalise to it. *)
        let open Injector in
        let events =
          [ { round = 1; node = 5 }; { round = 0; node = 9 };
            { round = 1; node = 2 }; { round = 1; node = 7 };
            { round = 0; node = 1 } ]
        in
        let expected =
          [ { round = 0; node = 1 }; { round = 0; node = 9 };
            { round = 1; node = 2 }; { round = 1; node = 5 };
            { round = 1; node = 7 } ]
        in
        check Alcotest.bool "normal form" true
          (sort_schedule events = expected);
        (* Every permutation of the input normalises identically. *)
        let rec permutations = function
          | [] -> [ [] ]
          | l ->
            List.concat_map
              (fun x ->
                List.map
                  (fun p -> x :: p)
                  (permutations (List.filter (fun y -> y <> x) l)))
              l
        in
        List.iter
          (fun p ->
            check Alcotest.bool "permutation-invariant" true
              (sort_schedule p = expected))
          (permutations events));
    tc "processors-only schedule hits processors" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let rng = Stream.Prng.create 6 in
        let s = Injector.random_processors_only ~rng inst ~count:2 ~rounds:10 in
        List.iter
          (fun ev ->
            check Alcotest.bool "processor" true
              (Label.equal
                 (Instance.kind_of inst ev.Injector.node)
                 Label.Processor))
          s);
    tc "burst targets consecutive processors at one round" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let s = Injector.burst inst ~count:2 ~at:7 in
        check Alcotest.int "count" 2 (List.length s);
        List.iter
          (fun ev -> check Alcotest.int "round" 7 ev.Injector.round)
          s);
    tc "adversarial hits terminals" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let s = Injector.adversarial_terminals inst ~count:3 ~at:0 in
        List.iter
          (fun ev ->
            check Alcotest.bool "terminal" true
              (Label.is_terminal (Instance.kind_of inst ev.Injector.node)))
          s);
    tc "apply_due fires exactly the due events" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let m = Machine.create inst in
        let s =
          [
            { Injector.round = 1; node = 0 };
            { Injector.round = 1; node = 1 };
            { Injector.round = 3; node = 2 };
          ]
        in
        check Alcotest.int "round 0: none" 0 (Injector.apply_due s ~round:0 m);
        check Alcotest.int "round 1: two" 2 (Injector.apply_due s ~round:1 m);
        check Alcotest.int "fault count" 2 (Machine.fault_count m));
    tc "too many faults rejected" (fun () ->
        let inst = Family.build ~n:1 ~k:1 in
        Alcotest.check_raises "burst too large"
          (Invalid_argument "Injector.burst: too many") (fun () ->
            ignore (Injector.burst inst ~count:10 ~at:0)));
  ]

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let runner_tests =
  [
    tc "stage_blocks balanced partition" (fun () ->
        let blocks = Runner.stage_blocks ~stages:[ 1; 2; 3; 4; 5 ] ~processors:2 in
        check
          (Alcotest.list (Alcotest.list Alcotest.int))
          "split" [ [ 1; 2; 3 ]; [ 4; 5 ] ] blocks;
        let blocks3 = Runner.stage_blocks ~stages:[ 1; 2 ] ~processors:4 in
        check Alcotest.int "four blocks" 4 (List.length blocks3);
        check
          (Alcotest.list (Alcotest.list Alcotest.int))
          "empties at tail" [ [ 1 ]; [ 2 ]; []; [] ] blocks3);
    tc "stage_blocks rejects zero processors" (fun () ->
        Alcotest.check_raises "p=0"
          (Invalid_argument "Runner.stage_blocks: processors < 1") (fun () ->
            ignore (Runner.stage_blocks ~stages:[ 1 ] ~processors:0)));
    tc "frame_cost decreases with more processors" (fun () ->
        let stages = Stage.fir_bank 12 in
        let c1 = Runner.frame_cost ~stages ~processors:1 ~frame:256 in
        let c4 = Runner.frame_cost ~stages ~processors:4 ~frame:256 in
        let c12 = Runner.frame_cost ~stages ~processors:12 ~frame:256 in
        check Alcotest.bool "monotone" true (c1 > c4 && c4 > c12 && c12 > 0));
    tc "fault-free run: utilization 1, checksum deterministic" (fun () ->
        let run () =
          Runner.run
            ~machine:(Machine.create (Family.build ~n:9 ~k:2))
            ~stages:(Stage.video_codec ())
            ~source:(Stream.Sine_mixture [ (0.02, 1.0) ])
            ~frame_length:128 ~rounds:20 ()
        in
        let m = run () in
        check Alcotest.int "all frames" 20 m.Runner.frames_processed;
        check float_eps "utilization" 1.0 m.Runner.mean_utilization;
        check Alcotest.bool "not lost" false m.Runner.pipeline_lost;
        let m' = run () in
        check float_eps "checksum deterministic" m.Runner.output_checksum
          m'.Runner.output_checksum);
    tc "in-spec faults: frames all processed, utilization stays 1" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let machine = Machine.create inst in
        let rng = Stream.Prng.create 11 in
        let schedule =
          Injector.random_processors_only ~rng inst ~count:2 ~rounds:30
        in
        let m =
          Runner.run ~machine
            ~stages:(Stage.ct_reconstruction ())
            ~source:(Stream.Chirp { f0 = 1.0; f1 = 4.0 })
            ~frame_length:128 ~rounds:30 ~schedule ()
        in
        check Alcotest.int "all frames" 30 m.Runner.frames_processed;
        check float_eps "graceful" 1.0 m.Runner.mean_utilization;
        check Alcotest.int "remaps recorded" 2 m.Runner.remaps);
    tc "faults slow the pipeline down (work increases)" (fun () ->
        let stages = Stage.fir_bank 11 in
        let source = Stream.Sine_mixture [ (0.01, 1.0) ] in
        let clean =
          Runner.run
            ~machine:(Machine.create (Family.build ~n:9 ~k:2))
            ~stages ~source ~frame_length:128 ~rounds:20 ()
        in
        let inst = Family.build ~n:9 ~k:2 in
        let machine = Machine.create inst in
        let schedule = Injector.burst inst ~count:2 ~at:0 in
        let faulty =
          Runner.run ~machine ~stages ~source ~frame_length:128 ~rounds:20
            ~schedule ()
        in
        check Alcotest.bool "losing processors costs work" true
          (faulty.Runner.total_work > clean.Runner.total_work);
        check Alcotest.bool "throughput drops" true
          (faulty.Runner.throughput < clean.Runner.throughput);
        (* Values are mapping-independent. *)
        check float_eps "checksum unchanged" clean.Runner.output_checksum
          faulty.Runner.output_checksum);
    tc "beyond-spec faults lose the stream" (fun () ->
        let inst = Family.build ~n:4 ~k:1 in
        let machine = Machine.create inst in
        (* Kill both input terminals: beyond spec for k=1. *)
        let inputs = Instance.inputs inst in
        let schedule =
          List.map (fun node -> { Injector.round = 5; node }) inputs
        in
        let m =
          Runner.run ~machine ~stages:(Stage.fir_bank 3)
            ~source:(Stream.Sine_mixture [ (0.02, 0.5) ])
            ~frame_length:64 ~rounds:10 ~schedule ()
        in
        check Alcotest.bool "lost" true m.Runner.pipeline_lost;
        check Alcotest.int "five frames before the hit" 5
          m.Runner.frames_processed);
    tc "second remap in a multi-fault round is classified independently"
      (fun () ->
        (* Regression: the runner captured [local_repair_count] once per
           round, so once the first event of a round landed a local
           repair, every later remap in the same round compared against
           the stale pre-round count and was reported local too. *)
        let inst = Family.build ~n:9 ~k:2 in
        let fresh () = Machine.create inst in
        let p = Option.get (Machine.pipeline (fresh ())) in
        (* First fault: an input terminal off the embedded pipeline — the
           patcher absorbs it without a solve (a local repair). *)
        let unused_input =
          List.find
            (fun t -> not (List.mem t p.Gdpn_core.Pipeline.nodes))
            (Instance.inputs inst)
        in
        (* Second fault: discovered, not hardcoded — a processor whose
           injection right after the terminal fault needs a full solve
           (the machine's local count stays at 1). *)
        let global_node =
          List.find
            (fun c ->
              let m = fresh () in
              match Machine.inject m unused_input with
              | Machine.Remapped _ when Machine.local_repair_count m = 1 -> (
                match Machine.inject m c with
                | Machine.Remapped _ -> Machine.local_repair_count m = 1
                | Machine.Unchanged | Machine.Lost -> false)
              | _ -> false)
            (Instance.processors inst)
        in
        let trace = Trace.recorder () in
        let schedule =
          [
            { Injector.round = 0; node = unused_input };
            { Injector.round = 0; node = global_node };
          ]
        in
        let m =
          Runner.run ~machine:(fresh ()) ~stages:(Stage.video_codec ())
            ~source:(Stream.Sine_mixture [ (0.013, 1.0) ])
            ~frame_length:128 ~rounds:3 ~schedule ~trace ()
        in
        check Alcotest.int "one local repair" 1 m.Runner.local_repairs;
        let remap_flags =
          List.filter_map
            (function
              | Trace.Remap { local; _ } -> Some local
              | Trace.Fault _ | Trace.Migration _ | Trace.Stream_lost _ ->
                None)
            (Trace.events trace)
        in
        check
          (Alcotest.list Alcotest.bool)
          "one local then one global" [ true; false ] remap_flags);
  ]

(* ------------------------------------------------------------------ *)
(* Trace and migration accounting                                      *)
(* ------------------------------------------------------------------ *)

let trace_tests =
  [
    tc "fault-free run records nothing" (fun () ->
        let trace = Trace.recorder () in
        let _ =
          Runner.run
            ~machine:(Machine.create (Family.build ~n:6 ~k:2))
            ~stages:(Stage.fir_bank 4)
            ~source:(Stream.Sine_mixture [ (0.02, 1.0) ])
            ~frame_length:64 ~rounds:10 ~trace ()
        in
        check Alcotest.int "no events" 0 (List.length (Trace.events trace)));
    tc "faults produce fault + remap events in order" (fun () ->
        let inst = Family.build ~n:6 ~k:2 in
        let machine = Machine.create inst in
        let p = List.hd (Instance.processors inst) in
        let schedule = [ { Injector.round = 3; node = p } ] in
        let trace = Trace.recorder () in
        let _ =
          Runner.run ~machine ~stages:(Stage.fir_bank 4)
            ~source:(Stream.Sine_mixture [ (0.02, 1.0) ])
            ~frame_length:64 ~rounds:10 ~schedule ~trace ()
        in
        match Trace.events trace with
        | Trace.Fault { round = 3; node } :: Trace.Remap { round = 3; _ } :: _
          ->
          check Alcotest.int "right node" p node
        | evs ->
          Alcotest.failf "unexpected events: %s"
            (String.concat "; "
               (List.map (Format.asprintf "%a" Trace.pp_event) evs)));
    tc "migration events fire when stages move" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let machine = Machine.create inst in
        (* Fail the first processor on the embedded pipeline: its stages
           must move somewhere. *)
        let p = Option.get (Machine.pipeline machine) in
        let first_proc = List.nth (Gdpn_core.Pipeline.normalise inst p).Gdpn_core.Pipeline.nodes 1 in
        let schedule = [ { Injector.round = 2; node = first_proc } ] in
        let trace = Trace.recorder () in
        let m =
          Runner.run ~machine ~stages:(Stage.fir_bank 22)
            ~source:(Stream.Sine_mixture [ (0.02, 1.0) ])
            ~frame_length:64 ~rounds:8 ~schedule ~trace ()
        in
        check Alcotest.bool "migrated > 0" true (m.Runner.stages_migrated > 0);
        check Alcotest.bool "migration event" true
          (Trace.count trace (function
             | Trace.Migration _ -> true
             | _ -> false)
          > 0));
    tc "traces are deterministic across replays" (fun () ->
        let run () =
          let inst = Family.build ~n:9 ~k:2 in
          let machine = Machine.create inst in
          let rng = Stream.Prng.create 8 in
          let schedule =
            Injector.random_processors_only ~rng inst ~count:2 ~rounds:20
          in
          let trace = Trace.recorder () in
          let _ =
            Runner.run ~machine ~stages:(Stage.video_codec ())
              ~source:(Stream.Sine_mixture [ (0.02, 1.0) ])
              ~frame_length:64 ~rounds:20 ~schedule ~trace ()
          in
          trace
        in
        check Alcotest.bool "equal traces" true (Trace.equal (run ()) (run ())));
    tc "csv export has a line per event plus header" (fun () ->
        let trace = Trace.recorder () in
        Trace.record trace (Trace.Fault { round = 1; node = 4 });
        Trace.record trace
          (Trace.Remap { round = 1; local = true; pipeline_processors = 9 });
        Trace.record trace (Trace.Stream_lost { round = 2 });
        let csv = Trace.to_csv trace in
        check Alcotest.int "lines" 4
          (List.length (String.split_on_char '\n' csv));
        check Alcotest.bool "header" true
          (String.length csv >= 16 && String.sub csv 0 16 = "round,kind,detai"));
  ]

(* ------------------------------------------------------------------ *)
(* Discrete-event simulation                                           *)
(* ------------------------------------------------------------------ *)

let des_tests =
  let stages = Stage.fir_bank 8 in
  let cfg = { Des.default_config with arrival_period = 4000 } in
  [
    tc "fault-free run completes all tokens with flat latency" (fun () ->
        let machine = Machine.create (Family.build ~n:9 ~k:2) in
        let o = Des.simulate ~machine ~stages ~config:cfg ~faults:[] ~tokens:40 () in
        check Alcotest.int "all tokens" 40 o.Des.tokens_completed;
        check Alcotest.int "no stall" 0 o.Des.stall_time;
        (* In steady state with arrival period above the bottleneck service
           time, every token has the same latency. *)
        check Alcotest.int "flat latency" o.Des.max_latency
          (int_of_float o.Des.mean_latency));
    tc "latency equals sum of stage costs when uncontended" (fun () ->
        let machine = Machine.create (Family.build ~n:9 ~k:2) in
        let o =
          Des.simulate ~machine ~stages ~config:cfg ~faults:[] ~tokens:5 ()
        in
        (* 11 processors > 8 stages: each stage has its own host, so
           end-to-end latency = sum of the stage costs. *)
        let expected =
          List.fold_left
            (fun acc st -> acc + Stage.cost st ~frame:cfg.Des.frame_length)
            0 stages
        in
        check Alcotest.int "pure pipeline latency" expected o.Des.max_latency);
    tc "a fault adds a bounded latency spike" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let clean =
          Des.simulate
            ~machine:(Machine.create inst)
            ~stages ~config:cfg ~faults:[] ~tokens:60 ()
        in
        let proc = List.nth (Gdpn_core.Instance.processors inst) 3 in
        let faulty =
          Des.simulate
            ~machine:(Machine.create inst)
            ~stages ~config:cfg
            ~faults:[ (100_000, proc) ]
            ~tokens:60 ()
        in
        check Alcotest.int "still all tokens" 60 faulty.Des.tokens_completed;
        check Alcotest.bool "spike exists" true
          (faulty.Des.max_latency > clean.Des.max_latency);
        let max_migration =
          cfg.Des.migration_cost_per_word
          * List.fold_left (fun acc st -> acc + Stage.state_size st) 0 stages
        in
        check Alcotest.bool "spike bounded by repair + migration" true
          (faulty.Des.max_latency
          <= clean.Des.max_latency + cfg.Des.remap_latency
             + cfg.Des.splice_latency + max_migration);
        check Alcotest.bool "stall recorded" true (faulty.Des.stall_time > 0));
    tc "local repair produces smaller spikes than full remap" (fun () ->
        (* Use a clique construction where splices almost always apply, and
           an off-pipeline terminal fault that is Unchanged-local. *)
        let inst = Small_n.g1 ~k:3 in
        let machine = Machine.create inst in
        let p = Option.get (Machine.pipeline machine) in
        let unused =
          List.find
            (fun t -> not (List.mem t p.Gdpn_core.Pipeline.nodes))
            (Gdpn_core.Instance.inputs inst)
        in
        let with_repair =
          Des.simulate ~machine ~stages ~config:cfg
            ~faults:[ (50_000, unused) ]
            ~tokens:40 ()
        in
        let without =
          Des.simulate
            ~machine:(Machine.create ~local_repair:false inst)
            ~stages ~config:cfg
            ~faults:[ (50_000, unused) ]
            ~tokens:40 ()
        in
        check Alcotest.int "splice stall" cfg.Des.splice_latency
          with_repair.Des.stall_time;
        check Alcotest.int "full stall" cfg.Des.remap_latency
          without.Des.stall_time;
        check Alcotest.bool "smaller spike" true
          (with_repair.Des.max_latency <= without.Des.max_latency));
    tc "deterministic across replays" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let procs = Gdpn_core.Instance.processors inst in
        let faults = [ (80_000, List.nth procs 2); (160_000, List.nth procs 7) ] in
        let run () =
          Des.simulate
            ~machine:(Machine.create inst)
            ~stages ~config:cfg ~faults ~tokens:50 ()
        in
        let a = run () and b = run () in
        check Alcotest.bool "same latencies" true
          (a.Des.latencies = b.Des.latencies);
        check Alcotest.int "same makespan" a.Des.makespan b.Des.makespan);
    tc "saturated arrivals queue but nothing is dropped" (fun () ->
        let machine = Machine.create (Family.build ~n:4 ~k:1) in
        let cfg = { cfg with arrival_period = 10 } in
        let o = Des.simulate ~machine ~stages ~config:cfg ~faults:[] ~tokens:30 () in
        check Alcotest.int "all tokens" 30 o.Des.tokens_completed;
        (* Later tokens wait behind earlier ones: latency grows. *)
        check Alcotest.bool "queueing visible" true
          (o.Des.max_latency > int_of_float o.Des.mean_latency));
    tc "faults scheduled after the last token are drained, not dropped"
      (fun () ->
        (* Regression: the event loop exits as soon as every token has
           completed, and faults still queued at that point were silently
           discarded — the machine's end state missed them and nothing in
           the outcome said so. *)
        let inst = Family.build ~n:9 ~k:2 in
        let machine = Machine.create inst in
        let proc = List.nth (Instance.processors inst) 3 in
        let baseline =
          Des.simulate
            ~machine:(Machine.create inst)
            ~stages ~config:cfg ~faults:[] ~tokens:10 ()
        in
        (* Well past the fault-free makespan: the fault fires after every
           token is done. *)
        let late_at = (2 * baseline.Des.makespan) + 1_000_000 in
        let o =
          Des.simulate ~machine ~stages ~config:cfg
            ~faults:[ (late_at, proc) ]
            ~tokens:10 ()
        in
        check Alcotest.int "injected" 1 o.Des.faults_injected;
        check Alcotest.int "applied" 1 o.Des.faults_applied;
        check Alcotest.int "late" 1 o.Des.faults_late;
        (* The machine really absorbed it. *)
        check Alcotest.int "machine saw the fault" 1
          (Machine.fault_count machine);
        check Alcotest.bool "stall accounted" true (o.Des.stall_time > 0);
        (* A late fault cannot touch any token's latency. *)
        check Alcotest.bool "latencies unchanged" true
          (o.Des.latencies = baseline.Des.latencies));
    tc "mid-run faults report zero late" (fun () ->
        let inst = Family.build ~n:9 ~k:2 in
        let proc = List.nth (Instance.processors inst) 3 in
        let o =
          Des.simulate
            ~machine:(Machine.create inst)
            ~stages ~config:cfg
            ~faults:[ (100_000, proc) ]
            ~tokens:60 ()
        in
        check Alcotest.int "injected" 1 o.Des.faults_injected;
        check Alcotest.int "applied" 1 o.Des.faults_applied;
        check Alcotest.int "late" 0 o.Des.faults_late);
    tc "argument validation" (fun () ->
        let machine = Machine.create (Family.build ~n:4 ~k:1) in
        Alcotest.check_raises "no stages"
          (Invalid_argument "Des.simulate: empty stage chain") (fun () ->
            ignore
              (Des.simulate ~machine ~stages:[] ~config:cfg ~faults:[]
                 ~tokens:1 ())));
    tc "activity intervals are consistent" (fun () ->
        let o =
          Des.simulate
            ~machine:(Machine.create (Family.build ~n:9 ~k:2))
            ~stages:(Stage.fir_bank 6)
            ~config:{ Des.default_config with arrival_period = 3000 }
            ~faults:[] ~tokens:10 ()
        in
        check Alcotest.int "one interval per (token, stage)" (10 * 6)
          (List.length o.Des.activity);
        List.iter
          (fun a ->
            check Alcotest.bool "positive duration" true
              (a.Des.finish > a.Des.start);
            check Alcotest.bool "within makespan" true
              (a.Des.finish <= o.Des.makespan))
          o.Des.activity);
  ]

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_tests =
  [
    tc "summary of a known sample" (fun () ->
        let s = Stats.summarise [| 1.0; 2.0; 3.0; 4.0 |] in
        check Alcotest.int "count" 4 s.Stats.count;
        check float_eps "mean" 2.5 s.Stats.mean;
        check float_eps "min" 1.0 s.Stats.min_value;
        check float_eps "max" 4.0 s.Stats.max_value;
        check float_eps "stddev" (sqrt 1.25) s.Stats.stddev);
    tc "percentiles use nearest rank" (fun () ->
        (* Regression: the old rank p*n/100 was biased one slot high —
           p50 of 1..100 read the 51st value.  Nearest rank is
           ceil(p/100 * n). *)
        let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
        check float_eps "p50" 50.0 (Stats.percentile xs 50);
        check float_eps "p90" 90.0 (Stats.percentile xs 90);
        check float_eps "p99" 99.0 (Stats.percentile xs 99);
        check float_eps "p0" 1.0 (Stats.percentile xs 0);
        check float_eps "p100" 100.0 (Stats.percentile xs 100));
    tc "nearest-rank matches the ceil definition for all p and odd n" (fun () ->
        List.iter
          (fun n ->
            let xs = Array.init n (fun i -> float_of_int i) in
            for p = 0 to 100 do
              let expected =
                max 0 (int_of_float (ceil (float_of_int (p * n) /. 100.0)) - 1)
              in
              check float_eps
                (Printf.sprintf "n=%d p=%d" n p)
                (float_of_int expected) (Stats.percentile xs p)
            done)
          [ 1; 2; 3; 7; 10; 100; 101 ]);
    tc "percentile_int agrees with percentile" (fun () ->
        let xs = [| 9; 1; 4; 7; 2; 8; 3 |] in
        let fs = Array.map float_of_int xs in
        List.iter
          (fun p ->
            check Alcotest.int
              (Printf.sprintf "p%d" p)
              (int_of_float (Stats.percentile fs p))
              (Stats.percentile_int xs p))
          [ 0; 25; 50; 75; 90; 99; 100 ]);
    tc "empty and invalid inputs rejected" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Stats.summarise: empty") (fun () ->
            ignore (Stats.summarise [||]));
        Alcotest.check_raises "bad p"
          (Invalid_argument "Stats.percentile: p out of range") (fun () ->
            ignore (Stats.percentile [| 1.0 |] 101)));
    tc "histogram counts every sample exactly once" (fun () ->
        let xs = Array.init 57 (fun i -> float_of_int (i mod 13)) in
        let text = Stats.histogram ~bins:6 xs in
        let total =
          List.fold_left
            (fun acc line ->
              match String.rindex_opt line ' ' with
              | Some i ->
                acc
                + Option.value ~default:0
                    (int_of_string_opt
                       (String.sub line (i + 1) (String.length line - i - 1)))
              | None -> acc)
            0
            (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))
        in
        check Alcotest.int "total" 57 total);
    tc "constant data collapses to one line" (fun () ->
        let text = Stats.histogram (Array.make 9 3.5) in
        check Alcotest.bool "mentions all samples" true
          (Testutil.contains_substring text "all 9 samples"));
    tc "of_ints matches summarise" (fun () ->
        let a = Stats.of_ints [| 1; 2; 3 |] in
        let b = Stats.summarise [| 1.0; 2.0; 3.0 |] in
        check float_eps "same mean" b.Stats.mean a.Stats.mean);
  ]

(* ------------------------------------------------------------------ *)
(* Console                                                             *)
(* ------------------------------------------------------------------ *)

let console_tests =
  let reply console line =
    match Console.eval console line with
    | `Reply text -> text
    | `Quit -> Alcotest.fail "unexpected quit"
  in
  [
    tc "status, fault, processors round trip" (fun () ->
        let c = Console.create (Family.build ~n:6 ~k:2) in
        check Alcotest.bool "status mentions pipeline" true
          (Testutil.contains_substring (reply c "status") "pipeline up");
        check Alcotest.bool "fault remaps" true
          (Testutil.contains_substring (reply c "fault 3") "remapped");
        check Alcotest.bool "repeat fault reported" true
          (Testutil.contains_substring (reply c "fault 3") "already");
        check Alcotest.bool "processors" true
          (Testutil.contains_substring (reply c "processors") "utilization");
        check Alcotest.string "faults listed" "3" (reply c "faults"));
    tc "quit and unknown commands" (fun () ->
        let c = Console.create (Family.build ~n:4 ~k:1) in
        (match Console.eval c "quit" with
        | `Quit -> ()
        | `Reply _ -> Alcotest.fail "expected quit");
        check Alcotest.bool "unknown" true
          (Testutil.contains_substring (reply c "frobnicate") "unknown");
        check Alcotest.bool "help" true
          (Testutil.contains_substring (reply c "help") "fault N");
        check Alcotest.string "blank ok" "" (reply c "   "));
    tc "input validation never raises" (fun () ->
        let c = Console.create (Family.build ~n:4 ~k:1) in
        List.iter
          (fun line -> ignore (reply c line))
          [ "fault"; "fault x"; "fault -5"; "fault 999"; "verify"; "verify x";
            "verify 0" ]);
    tc "draw works for both instance classes" (fun () ->
        let generic = Console.create (Family.build ~n:4 ~k:1) in
        check Alcotest.bool "adjacency" true
          (String.length (reply generic "draw") > 0);
        let ring = Console.create (Gdpn_core.Circulant_family.build ~n:22 ~k:4) in
        check Alcotest.bool "ring header" true
          (Testutil.contains_substring (reply ring "draw") "lbl role"));
    tc "verify command reports" (fun () ->
        let c = Console.create (Family.build ~n:4 ~k:1) in
        check Alcotest.bool "runs" true
          (Testutil.contains_substring (reply c "verify 50") "fault sets"));
    tc "stream loss is reported" (fun () ->
        let inst = Family.build ~n:1 ~k:1 in
        let c = Console.create inst in
        (* Both input terminals of G(1,1) are nodes 2 and 3. *)
        ignore (reply c "fault 2");
        check Alcotest.bool "lost" true
          (Testutil.contains_substring (reply c "fault 3") "LOST"));
    tc "verify replays from the console seed, not global Random state"
      (fun () ->
        (* The verify command used to build its RNG from stdlib
           [Random.State.make [| trials |]]; now every draw derives from
           the console's own Prng chain, so two consoles with the same
           seed agree even when the global Random state differs. *)
        let inst = Family.build ~n:4 ~k:1 in
        let a = Console.create ~seed:9 inst in
        let b = Console.create ~seed:9 inst in
        Random.init 1;
        let ra = reply a "verify 40" in
        Random.init 999;
        let rb = reply b "verify 40" in
        check Alcotest.string "same report" ra rb;
        (* Successive verifies advance the chain: the session replays as a
           whole, not each command from scratch. *)
        let c = Console.create ~seed:9 inst in
        ignore (reply c "verify 40");
        let second = reply c "verify 40" in
        check Alcotest.string "chained session replays" second
          (reply
             (let d = Console.create ~seed:9 inst in
              ignore (reply d "verify 40");
              d)
             "verify 40"));
  ]

let () =
  Alcotest.run "gdpn_faultsim"
    [
      ("stage", stage_tests);
      ("stream", stream_tests);
      ("machine", machine_tests);
      ("injector", injector_tests);
      ("runner", runner_tests);
      ("trace", trace_tests);
      ("des", des_tests);
      ("stats", stats_tests);
      ("console", console_tests);
    ]
