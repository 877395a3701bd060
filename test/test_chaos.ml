(* Tests for the deterministic chaos harness (Scenario): frozen-seed
   digests per profile, the failure-replay oracle (same seed => identical
   event trace), invariant-checker unit tests on hand-built violating
   states, and the kill-and-replay guarantee — a sabotaged run stops at a
   violation and rerunning the seed reproduces the identical violation
   and event prefix. *)

open Gdpn_faultsim
open Gdpn_core

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let inst9 = Family.build ~n:9 ~k:2

(* Small but eventful: 14_600 virtual ops. *)
let test_config =
  {
    Scenario.default_config with
    ops_per_day = 40;
    stream_every = 1_000;
    stream_tokens = 8;
  }

let run_seed ?perturb profile seed =
  Scenario.run ~config:test_config ?perturb ~profile ~seed inst9

(* ------------------------------------------------------------------ *)
(* Frozen digests                                                      *)
(* ------------------------------------------------------------------ *)

(* One digest per (profile, seed): any behavioural change to the harness,
   the PRNG, the machine, the engine cache or the DES shows up here.
   Refreeze deliberately (dune exec bin/gdp.exe -- chaos prints digests)
   when the change is intentional. *)
let frozen_digest_tests =
  let cases =
    [
      (Scenario.Mild, 7, 0x18dffe1b6b7ddf7e);
      (Scenario.Mild, 11, 0x3e9f022718df1633);
      (Scenario.Aggressive, 7, 0x17862575ccf4c807);
      (Scenario.Aggressive, 11, 0x26ef9616a41f1761);
      (Scenario.Chaos, 7, 0xcf111bd1d8a4b2c);
      (Scenario.Chaos, 11, 0x2b4c74d7c8914a22);
    ]
  in
  List.map
    (fun (profile, seed, digest) ->
      tc
        (Printf.sprintf "%s seed %d digest frozen"
           (Scenario.profile_name profile)
           seed)
        (fun () ->
          let r = run_seed profile seed in
          (match r.Scenario.violation with
          | None -> ()
          | Some v ->
            Alcotest.failf "invariant violation at op %d: %s — %s" v.v_op
              v.v_invariant v.v_detail);
          check Alcotest.int "digest" digest r.Scenario.digest))
    cases

(* The acceptance gate: a chaos run must exercise the generalized fault
   universe, not just node death — link cuts, colored-edge bursts and
   neighbor-closure kills all applied, all invariants green. *)
let kind_coverage_tests =
  [
    tc "chaos seeds cover link, colored and neighbor faults" (fun () ->
        List.iter
          (fun seed ->
            let r = run_seed Scenario.Chaos seed in
            check Alcotest.bool "no violation" true
              (r.Scenario.violation = None);
            List.iter
              (fun kind ->
                check Alcotest.bool
                  (Printf.sprintf "seed %d covers %s" seed
                     (Scenario.kind_name kind))
                  true
                  (List.mem kind r.Scenario.kinds_covered))
              Scenario.
                [ Node_death; Link_cut; Colored_burst; Neighbor_kill ])
          [ 7; 11 ]);
    tc "losses are recovered, not fatal" (fun () ->
        (* Chaos rates push the machine beyond spec routinely; every loss
           must be followed by a full repair and the run must finish. *)
        let r = run_seed Scenario.Chaos 7 in
        check Alcotest.bool "beyond-spec losses happened" true
          (r.Scenario.losses > 0);
        check Alcotest.int "ran to completion"
          (test_config.Scenario.years * 365 * test_config.Scenario.ops_per_day)
          r.Scenario.ops);
  ]

(* ------------------------------------------------------------------ *)
(* Replay oracle                                                       *)
(* ------------------------------------------------------------------ *)

let replay_tests =
  [
    tc "same seed produces an identical event trace" (fun () ->
        let a = run_seed Scenario.Chaos 3 in
        let b = run_seed Scenario.Chaos 3 in
        check Alcotest.bool "events equal" true
          (a.Scenario.events = b.Scenario.events);
        check Alcotest.int "digest equal" a.Scenario.digest b.Scenario.digest;
        check Alcotest.int "faults equal" a.Scenario.faults_applied
          b.Scenario.faults_applied);
    tc "different seeds diverge" (fun () ->
        let a = run_seed Scenario.Chaos 3 in
        let b = run_seed Scenario.Chaos 4 in
        check Alcotest.bool "digests differ" true
          (a.Scenario.digest <> b.Scenario.digest));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"any seed replays byte-identically with invariants green"
         ~count:15
         QCheck.(int_range 0 100_000)
         (fun seed ->
           let quick =
             { test_config with Scenario.ops_per_day = 10; stream_every = 500 }
           in
           let a =
             Scenario.run ~config:quick ~profile:Scenario.Chaos ~seed inst9
           in
           let b =
             Scenario.run ~config:quick ~profile:Scenario.Chaos ~seed inst9
           in
           a.Scenario.violation = None
           && a.Scenario.digest = b.Scenario.digest
           && a.Scenario.events = b.Scenario.events));
  ]

(* ------------------------------------------------------------------ *)
(* Invariant checkers on hand-built violating states                   *)
(* ------------------------------------------------------------------ *)

let activity ~host ~stage ~token ~start ~finish =
  { Des.host; stage; token; start; finish }

(* A well-formed 2-token / 2-stage outcome to mutate from. *)
let good_outcome () =
  {
    Des.tokens_completed = 2;
    makespan = 40;
    mean_latency = 20.0;
    max_latency = 25;
    p99_latency = 25;
    stall_time = 0;
    faults_injected = 0;
    faults_applied = 0;
    faults_late = 0;
    stream_lost = false;
    latencies = [| 15; 25 |];
    activity =
      [
        activity ~host:0 ~stage:0 ~token:0 ~start:0 ~finish:10;
        activity ~host:1 ~stage:1 ~token:0 ~start:10 ~finish:15;
        activity ~host:0 ~stage:0 ~token:1 ~start:10 ~finish:20;
        activity ~host:1 ~stage:1 ~token:1 ~start:20 ~finish:25;
      ];
  }

let expect_error name sub = function
  | Ok () -> Alcotest.failf "%s: expected a violation mentioning %S" name sub
  | Error d ->
      check Alcotest.bool
        (Printf.sprintf "%s: %S mentions %S" name d sub)
        true
        (Testutil.contains_substring d sub)

let checker_tests =
  [
    tc "stream checker accepts a clean outcome" (fun () ->
        match Scenario.check_stream ~stages:2 ~tokens:2 (good_outcome ()) with
        | Ok () -> ()
        | Error d -> Alcotest.failf "spurious violation: %s" d);
    tc "stream checker catches a duplicated token" (fun () ->
        let o = good_outcome () in
        let dup =
          { o with Des.activity = List.hd o.Des.activity :: o.Des.activity }
        in
        expect_error "dup" "duplicated"
          (Scenario.check_stream ~stages:2 ~tokens:2 dup));
    tc "stream checker catches a lost token" (fun () ->
        let o = good_outcome () in
        let missing =
          {
            o with
            Des.activity =
              List.filter
                (fun a -> not (a.Des.token = 1 && a.Des.stage = 0))
                o.Des.activity;
          }
        in
        expect_error "lost" "token lost"
          (Scenario.check_stream ~stages:2 ~tokens:2 missing));
    tc "stream checker catches a phantom token" (fun () ->
        let o = good_outcome () in
        let phantom =
          {
            o with
            Des.activity =
              activity ~host:0 ~stage:0 ~token:7 ~start:0 ~finish:1
              :: o.Des.activity;
          }
        in
        expect_error "phantom" "phantom"
          (Scenario.check_stream ~stages:2 ~tokens:2 phantom));
    tc "stream checker catches reordered tokens within a stage" (fun () ->
        let o = good_outcome () in
        (* Token 1 starts stage 1 strictly before token 0 does. *)
        let swapped =
          {
            o with
            Des.activity =
              [
                activity ~host:0 ~stage:0 ~token:0 ~start:0 ~finish:10;
                activity ~host:1 ~stage:1 ~token:0 ~start:22 ~finish:27;
                activity ~host:0 ~stage:0 ~token:1 ~start:10 ~finish:20;
                activity ~host:1 ~stage:1 ~token:1 ~start:20 ~finish:22;
              ];
            latencies = [| 27; 22 |];
          }
        in
        expect_error "overtake" "overtook"
          (Scenario.check_stream ~stages:2 ~tokens:2 swapped));
    tc "stream checker catches a token entering a stage early" (fun () ->
        let o = good_outcome () in
        let early =
          {
            o with
            Des.activity =
              List.map
                (fun a ->
                  if a.Des.token = 0 && a.Des.stage = 1 then
                    { a with Des.start = 5 }
                  else a)
                o.Des.activity;
          }
        in
        expect_error "early" "before leaving"
          (Scenario.check_stream ~stages:2 ~tokens:2 early));
    tc "stream checker catches shortfall on an unlost stream" (fun () ->
        let o = { (good_outcome ()) with Des.tokens_completed = 1 } in
        expect_error "shortfall" "unlost"
          (Scenario.check_stream ~stages:2 ~tokens:2 o));
    tc "accounting checker catches shadow divergence" (fun () ->
        let m = Machine.create inst9 in
        (match Scenario.check_accounting m ~shadow:[] with
        | Ok () -> ()
        | Error d -> Alcotest.failf "clean machine flagged: %s" d);
        ignore (Machine.inject m 3);
        expect_error "divergence" "diverged"
          (Scenario.check_accounting m ~shadow:[]);
        (match Scenario.check_accounting m ~shadow:[ 3 ] with
        | Ok () -> ()
        | Error d -> Alcotest.failf "matching shadow flagged: %s" d);
        (* Order matters: the shadow replays injection order. *)
        ignore (Machine.inject m 5);
        expect_error "order" "diverged"
          (Scenario.check_accounting m ~shadow:[ 5; 3 ]));
    tc "coverage and coherence accept live and lost machines" (fun () ->
        let model = Fault_model.mixed inst9 in
        let m = Machine.create ~model inst9 in
        let ok name = function
          | Ok () -> ()
          | Error d -> Alcotest.failf "%s flagged a healthy machine: %s" name d
        in
        ok "coverage" (Scenario.check_coverage m);
        ok "coherence" (Scenario.check_coherence m);
        (* Drive it beyond spec until the pipeline is genuinely lost; the
           checkers must agree that lost is the right answer. *)
        let idx = ref 0 in
        while Machine.pipeline m <> None do
          ignore (Machine.inject m !idx);
          incr idx
        done;
        ok "coverage after loss" (Scenario.check_coverage m);
        ok "coherence after loss" (Scenario.check_coherence m));
  ]

(* ------------------------------------------------------------------ *)
(* Kill-and-replay                                                     *)
(* ------------------------------------------------------------------ *)

(* Sabotage: inject a fault behind the shadow state's back at a fixed op.
   The run must stop at that op with an accounting violation, and the
   rerun must reproduce the identical violation and event prefix —
   the acceptance criterion for `gdp chaos --seed N` replay. *)
let sabotage ~at op machine =
  if op = at then
    let usize = Fault_model.size (Machine.model machine) in
    let faulty = Machine.faults machine in
    let idx =
      List.find (fun i -> not (List.mem i faulty)) (List.init usize Fun.id)
    in
    ignore (Machine.inject machine idx)

let kill_and_replay_tests =
  [
    tc "a sabotaged run stops at a reproducible violation" (fun () ->
        let a = run_seed ~perturb:(sabotage ~at:777) Scenario.Chaos 5 in
        let v =
          match a.Scenario.violation with
          | Some v -> v
          | None -> Alcotest.fail "sabotage went undetected"
        in
        check Alcotest.int "caught at the sabotaged op" 777 v.Scenario.v_op;
        check Alcotest.string "accounting invariant" "accounting"
          v.Scenario.v_invariant;
        check Alcotest.bool "run stopped early" true
          (a.Scenario.ops < 14_600));
    tc "replaying the failing seed reproduces violation and prefix" (fun () ->
        let a = run_seed ~perturb:(sabotage ~at:777) Scenario.Chaos 5 in
        let b = run_seed ~perturb:(sabotage ~at:777) Scenario.Chaos 5 in
        check Alcotest.bool "same violation" true
          (a.Scenario.violation = b.Scenario.violation);
        check Alcotest.bool "same event prefix" true
          (a.Scenario.events = b.Scenario.events);
        check Alcotest.int "same digest" a.Scenario.digest b.Scenario.digest);
    tc "the clean run of the same seed is unaffected" (fun () ->
        let clean = run_seed Scenario.Chaos 5 in
        let sabotaged = run_seed ~perturb:(sabotage ~at:777) Scenario.Chaos 5 in
        check Alcotest.bool "no violation without sabotage" true
          (clean.Scenario.violation = None);
        (* The sabotaged run's prefix is a prefix of the clean run's
           events up to the violating op (the perturb does not consume
           rng draws before op 777). *)
        let before_op op l =
          List.filter (fun e -> e.Scenario.op < op) l
        in
        check Alcotest.bool "shared prefix up to the sabotage" true
          (before_op 777 clean.Scenario.events
          = before_op 777 sabotaged.Scenario.events));
  ]

(* ------------------------------------------------------------------ *)
(* The new seams: Des on_lost, Engine crash_restart, Machine restart   *)
(* ------------------------------------------------------------------ *)

let seam_tests =
  [
    tc "Des on_lost:`Stop reports loss instead of raising" (fun () ->
        let inst = Family.build ~n:4 ~k:1 in
        let machine = Machine.create inst in
        let stages = Stage.fir_bank 3 in
        let config = { Des.default_config with arrival_period = 2_000 } in
        (* Kill processors until nothing survives, mid-stream. *)
        let faults =
          List.mapi
            (fun i p -> (1_000 * (i + 1), p))
            (Instance.processors inst)
        in
        let o =
          Des.simulate ~on_lost:`Stop ~machine ~stages ~config ~faults
            ~tokens:20 ()
        in
        check Alcotest.bool "lost" true o.Des.stream_lost;
        check Alcotest.bool "not all tokens" true (o.Des.tokens_completed < 20);
        check Alcotest.bool "unfinished tokens keep -1" true
          (Array.exists (fun l -> l = -1) o.Des.latencies);
        (* The invariant checker accepts a legitimately lost stream. *)
        (match Scenario.check_stream ~stages:3 ~tokens:20 o with
        | Ok () -> ()
        | Error d -> Alcotest.failf "lost stream flagged: %s" d);
        (* Default behaviour is unchanged: the same schedule raises. *)
        Alcotest.check_raises "default still fails"
          (Failure "Des.simulate: stream lost (fault beyond spec)") (fun () ->
            ignore
              (Des.simulate
                 ~machine:(Machine.create inst)
                 ~stages ~config ~faults ~tokens:20 ())));
    tc "Engine.crash_restart drops the plan cache, keeps the stats"
      (fun () ->
        let module Engine = Gdpn_engine.Engine in
        let engine = Engine.create inst9 in
        let mask = Gdpn_graph.Bitset.create (Instance.order inst9) in
        ignore (Engine.solve engine ~faults:mask);
        Gdpn_graph.Bitset.add mask (List.hd (Instance.processors inst9));
        ignore (Engine.solve engine ~faults:mask);
        check Alcotest.bool "cache warm" true (Engine.cache_size engine > 0);
        let solves_before = (Engine.stats engine).Engine.full_solves in
        check Alcotest.bool "stats nonzero" true (solves_before > 0);
        Engine.crash_restart engine;
        check Alcotest.int "cache cold" 0 (Engine.cache_size engine);
        check Alcotest.int "stats survive (external monitoring)" solves_before
          (Engine.stats engine).Engine.full_solves;
        (* The cache rebuilds on the next solve. *)
        ignore (Engine.solve engine ~faults:mask);
        check Alcotest.bool "cache rebuilt" true (Engine.cache_size engine > 0));
    tc "Machine.restart keeps a valid pipeline and no fault state"
      (fun () ->
        let model = Fault_model.mixed inst9 in
        let m = Machine.create ~model inst9 in
        ignore (Machine.inject m 3);
        let faults_before = Machine.faults m in
        Machine.restart m;
        check Alcotest.bool "fault list untouched" true
          (Machine.faults m = faults_before);
        check Alcotest.bool "pipeline alive" true (Machine.pipeline m <> None);
        (match Scenario.check_coverage m with
        | Ok () -> ()
        | Error d -> Alcotest.failf "post-restart pipeline invalid: %s" d);
        match Scenario.check_coherence m with
        | Ok () -> ()
        | Error d -> Alcotest.failf "post-restart incoherence: %s" d);
  ]

let () =
  Alcotest.run "gdpn_chaos"
    [
      ("frozen-digests", frozen_digest_tests);
      ("kind-coverage", kind_coverage_tests);
      ("replay", replay_tests);
      ("checkers", checker_tests);
      ("kill-and-replay", kill_and_replay_tests);
      ("seams", seam_tests);
    ]
