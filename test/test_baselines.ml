(* Tests for the prior-work baselines and the graceful-degradation
   comparison (experiment E12). *)

open Gdpn_baselines

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

(* ------------------------------------------------------------------ *)
(* Hayes-style array                                                   *)
(* ------------------------------------------------------------------ *)

let hayes_tests =
  [
    tc "graph structure: path power plus two devices" (fun () ->
        let g = Hayes.graph ~n:6 ~k:2 in
        check Alcotest.int "order" 10 (Gdpn_graph.Graph.order g);
        (* offsets 1..3 from node 0 *)
        check Alcotest.bool "0-3" true (Gdpn_graph.Graph.adjacent g 0 3);
        check Alcotest.bool "0-4 absent" false (Gdpn_graph.Graph.adjacent g 0 4);
        (* devices have degree 1 *)
        check Alcotest.int "input device" 1 (Gdpn_graph.Graph.degree g 8);
        check Alcotest.int "output device" 1 (Gdpn_graph.Graph.degree g 9));
    tc "fault-free embed uses all processors" (fun () ->
        match Hayes.embed ~n:6 ~k:2 ~faults:[] with
        | Some path ->
          check Alcotest.int "all" 8 (List.length path);
          check (Alcotest.list Alcotest.int) "in order"
            [ 0; 1; 2; 3; 4; 5; 6; 7 ] path
        | None -> Alcotest.fail "must embed");
    tc "interior faults tolerated, all healthy used" (fun () ->
        match Hayes.embed ~n:6 ~k:2 ~faults:[ 3; 5 ] with
        | Some path ->
          check (Alcotest.list Alcotest.int) "skips faults"
            [ 0; 1; 2; 4; 6; 7 ] path
        | None -> Alcotest.fail "interior faults must be tolerated");
    tc "port processor fault defeats the scheme" (fun () ->
        check Alcotest.bool "proc 0" true (Hayes.embed ~n:6 ~k:2 ~faults:[ 0 ] = None);
        check Alcotest.bool "last proc" true
          (Hayes.embed ~n:6 ~k:2 ~faults:[ 7 ] = None));
    tc "device fault defeats the scheme" (fun () ->
        check Alcotest.bool "input device" true
          (Hayes.embed ~n:6 ~k:2 ~faults:[ 8 ] = None));
    tc "scheme degree is 2(k+1) + port" (fun () ->
        let s = Hayes.scheme ~n:8 ~k:2 in
        (* interior processor: k+1 on each side = 6; plus nothing else.
           With n+k = 10 >= 2(k+1) the max degree is 2(k+1) = 6... port
           processors add a device edge but have only one side: 3 + 1. *)
        check Alcotest.int "max degree" 6 s.Scheme.max_degree);
    tc "gap beyond k+1 defeats embedding (over-spec burst)" (fun () ->
        (* 4 consecutive faults > k+1 = 3 hop reach. *)
        check Alcotest.bool "blocked" true
          (Hayes.embed ~n:6 ~k:2 ~faults:[ 2; 3; 4; 5 ] = None));
  ]

(* ------------------------------------------------------------------ *)
(* Cold spares                                                         *)
(* ------------------------------------------------------------------ *)

let spares_tests =
  [
    tc "tolerates any k processor faults at fixed length n" (fun () ->
        let s = Spares.scheme ~n:6 ~k:2 in
        check (Alcotest.option Alcotest.int) "none" (Some 6) (s.Scheme.tolerate []);
        check (Alcotest.option Alcotest.int) "two faults" (Some 6)
          (s.Scheme.tolerate [ 0; 7 ]);
        check (Alcotest.option Alcotest.int) "three faults still n if spares last"
          None
          (s.Scheme.tolerate [ 0; 1; 6 ] |> fun r ->
           if r = Some 6 then None else r);
        ());
    tc "device fault is fatal" (fun () ->
        let s = Spares.scheme ~n:6 ~k:2 in
        check (Alcotest.option Alcotest.int) "input device" None
          (s.Scheme.tolerate [ 8 ]);
        check (Alcotest.option Alcotest.int) "output device" None
          (s.Scheme.tolerate [ 9 ]));
    tc "utilization is n over healthy" (fun () ->
        let s = Spares.scheme ~n:6 ~k:2 in
        check
          (Alcotest.option (Alcotest.float 1e-9))
          "no faults: 6/8" (Some 0.75) (Scheme.utilization s []);
        check
          (Alcotest.option (Alcotest.float 1e-9))
          "one fault: 6/7"
          (Some (6.0 /. 7.0))
          (Scheme.utilization s [ 3 ]));
    tc "spare degree grows with n" (fun () ->
        let small = Spares.scheme ~n:4 ~k:2 in
        let large = Spares.scheme ~n:12 ~k:2 in
        check Alcotest.bool "linear cost" true
          (large.Scheme.max_degree > small.Scheme.max_degree));
  ]

(* ------------------------------------------------------------------ *)
(* Comparison (E12)                                                    *)
(* ------------------------------------------------------------------ *)

let compare_tests =
  [
    tc_slow "exhaustive comparison at (n,k) = (8,2): the paper's shape"
      (fun () ->
        match Compare.table ~n:8 ~k:2 () with
        | [ gdpn; hayes; spares; diogenes ] ->
          check Alcotest.string "row order" "gdpn" gdpn.Compare.scheme;
          (* GDPN: perfect coverage and utilization at optimal degree. *)
          check (Alcotest.float 1e-9) "gdpn coverage" 1.0 gdpn.Compare.coverage;
          check (Alcotest.float 1e-9) "gdpn utilization" 1.0
            gdpn.Compare.mean_utilization;
          check Alcotest.int "gdpn degree k+2" 4 gdpn.Compare.max_degree;
          (* Hayes: loses coverage to port/device faults. *)
          check Alcotest.bool "hayes coverage < 1" true
            (hayes.Compare.coverage < 0.9);
          check Alcotest.bool "hayes costs more degree" true
            (hayes.Compare.max_degree > gdpn.Compare.max_degree);
          (* Spares: strands healthy processors. *)
          check Alcotest.bool "spares utilization < 1" true
            (spares.Compare.mean_utilization < 1.0);
          check Alcotest.bool "spares min utilization = n/(n+k)" true
            (Float.abs (spares.Compare.min_utilization -. 0.8) < 1e-9);
          check Alcotest.bool "spares degree linear in n" true
            (spares.Compare.max_degree > 2 * gdpn.Compare.max_degree);
          (* Diogenes: graceful when alive, but the bus is a single point
             of failure — worst coverage of the four. *)
          check (Alcotest.float 1e-9) "diogenes graceful" 1.0
            diogenes.Compare.mean_utilization;
          check Alcotest.bool "diogenes coverage worst" true
            (diogenes.Compare.coverage < hayes.Compare.coverage)
        | _ -> Alcotest.fail "expected four rows");
    tc "degradation curve: gdpn flat at 1, baselines fall" (fun () ->
        let at scheme f =
          Compare.utilization_vs_faults scheme ~f ~trials:300 ~seed:17
        in
        let gdpn = Compare.gdpn_scheme ~n:8 ~k:2 in
        let hayes = Hayes.scheme ~n:8 ~k:2 in
        let spares = Spares.scheme ~n:8 ~k:2 in
        List.iter
          (fun f ->
            check (Alcotest.float 1e-9)
              (Printf.sprintf "gdpn f=%d" f)
              1.0 (at gdpn f))
          [ 0; 1; 2 ];
        check Alcotest.bool "hayes declines" true
          (at hayes 0 > at hayes 1 && at hayes 1 > at hayes 2);
        check Alcotest.bool "spares below gdpn" true
          (at spares 1 < 1.0));
    tc "gdpn scheme wraps the real constructions" (fun () ->
        let s = Compare.gdpn_scheme ~n:6 ~k:2 in
        (* 8 processors + (k+1) inputs + (k+1) outputs = 14 nodes. *)
        check Alcotest.int "terminals counted" 14 s.Scheme.total_nodes;
        check Alcotest.int "processors" 8 (List.length s.Scheme.processors);
        (* Tolerating k faults yields all-healthy-sized pipelines. *)
        check (Alcotest.option Alcotest.int) "two processor faults" (Some 6)
          (s.Scheme.tolerate [ 0; 1 ]));
    tc "evaluate with sampling matches exhaustive direction" (fun () ->
        let s = Compare.gdpn_scheme ~n:6 ~k:2 in
        let sampled = Compare.evaluate ~sample:(500, 3) s in
        check (Alcotest.float 1e-9) "coverage 1" 1.0 sampled.Compare.coverage);
  ]

(* ------------------------------------------------------------------ *)
(* Diogenes-style bused line                                           *)
(* ------------------------------------------------------------------ *)

let rosenberg_tests =
  [
    tc "processor faults are tolerated gracefully" (fun () ->
        match Rosenberg.embed ~n:6 ~k:2 ~faults:[ 1; 5 ] with
        | Some line ->
          check (Alcotest.list Alcotest.int) "compacted" [ 0; 2; 3; 4; 6; 7 ]
            line
        | None -> Alcotest.fail "processor faults must compact");
    tc "even k+? processor faults beyond spec still compact" (fun () ->
        match Rosenberg.embed ~n:6 ~k:2 ~faults:[ 0; 1; 2; 3 ] with
        | Some line -> check Alcotest.int "remaining" 4 (List.length line)
        | None -> Alcotest.fail "sites compacted through the bus");
    tc "one bus segment fault severs the stream" (fun () ->
        (* segment ids start at n+k = 8. *)
        check Alcotest.bool "bus fault fatal" true
          (Rosenberg.embed ~n:6 ~k:2 ~faults:[ 8 ] = None);
        check Alcotest.bool "last segment too" true
          (Rosenberg.embed ~n:6 ~k:2 ~faults:[ 14 ] = None));
    tc "device faults are fatal" (fun () ->
        check Alcotest.bool "input device" true
          (Rosenberg.embed ~n:6 ~k:2 ~faults:[ 15 ] = None);
        check Alcotest.bool "output device" true
          (Rosenberg.embed ~n:6 ~k:2 ~faults:[ 16 ] = None));
    tc "scheme metadata" (fun () ->
        let s = Rosenberg.scheme ~n:6 ~k:2 in
        check Alcotest.int "nodes: sites + segments + devices" 17
          s.Scheme.total_nodes;
        check Alcotest.int "degree constant" 3 s.Scheme.max_degree);
  ]

(* ------------------------------------------------------------------ *)
(* Hayes FT cycles                                                     *)
(* ------------------------------------------------------------------ *)

let hayes_cycle_tests =
  [
    tc "paper link: same offsets as the §3.4 ring for even k" (fun () ->
        (* Hayes's k-FT cycle on m nodes is the circulant with offsets
           1..k/2+1.  test_family checks that the C' ring of G'(n,k)
           contains it for every k; for even k the ring adds no edge. *)
        List.iter
          (fun (n, k) ->
            let m = n - k - 2 in
            let hayes =
              Gdpn_graph.Builder.circulant m
                (List.init ((k / 2) + 1) (fun i -> i + 1))
            in
            let g', _ = Gdpn_core.Circulant_family.extended ~n ~k in
            for u = 0 to m - 1 do
              for v = u + 1 to m - 1 do
                check Alcotest.bool
                  (Printf.sprintf "k=%d edge (%d,%d)" k u v)
                  (Gdpn_graph.Graph.adjacent hayes u v)
                  (Gdpn_graph.Graph.adjacent g' u v)
              done
            done)
          [ (22, 4); (30, 6) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Survival (E15)                                                      *)
(* ------------------------------------------------------------------ *)

let survival_tests =
  [
    tc "gdpn survives at least its designed tolerance" (fun () ->
        let inst = Gdpn_core.Family.build ~n:6 ~k:2 in
        let s =
          Survival.instance_lifetime
            ~rng:(Random.State.make [| 5 |])
            ~trials:40 inst
        in
        check Alcotest.int "designed" 2 s.Survival.designed;
        check Alcotest.bool "min >= k" true (s.Survival.min_faults >= 2);
        check Alcotest.bool "mean above k" true (s.Survival.mean >= 2.0));
    tc "baselines can die before their designed tolerance" (fun () ->
        (* Hayes: the very first fault can hit a port or device. *)
        let s =
          Survival.scheme_lifetime
            ~rng:(Random.State.make [| 6 |])
            ~trials:200 (Hayes.scheme ~n:8 ~k:2)
        in
        check Alcotest.int "min is zero" 0 s.Survival.min_faults;
        check Alcotest.bool "mean below designed" true (s.Survival.mean < 2.0));
    tc "gdpn mean lifetime beats every baseline" (fun () ->
        let rng () = Random.State.make [| 7 |] in
        let gdpn =
          Survival.instance_lifetime ~rng:(rng ()) ~trials:60
            (Gdpn_core.Family.build ~n:8 ~k:2)
        in
        List.iter
          (fun scheme ->
            let s = Survival.scheme_lifetime ~rng:(rng ()) ~trials:60 scheme in
            check Alcotest.bool
              ("beats " ^ scheme.Scheme.name)
              true
              (gdpn.Survival.mean > s.Survival.mean))
          [
            Hayes.scheme ~n:8 ~k:2; Spares.scheme ~n:8 ~k:2;
            Rosenberg.scheme ~n:8 ~k:2;
          ]);
    tc "lifetime statistics are reproducible from the seed" (fun () ->
        let run () =
          Survival.instance_lifetime
            ~rng:(Random.State.make [| 9 |])
            ~trials:20
            (Gdpn_core.Family.build ~n:4 ~k:2)
        in
        let a = run () and b = run () in
        check (Alcotest.float 1e-9) "same mean" a.Survival.mean b.Survival.mean;
        check Alcotest.int "same max" a.Survival.max_faults b.Survival.max_faults);
  ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let serial_tests =
  let module Serial = Gdpn_core.Serial in
  let module Instance = Gdpn_core.Instance in
  [
    tc "roundtrip preserves everything observable" (fun () ->
        List.iter
          (fun inst ->
            match Serial.of_string (Serial.to_string inst) with
            | Error e -> Alcotest.failf "%s: %s" inst.Instance.name e
            | Ok inst' ->
              check Alcotest.int "n" inst.Instance.n inst'.Instance.n;
              check Alcotest.int "k" inst.Instance.k inst'.Instance.k;
              check Alcotest.string "name" inst.Instance.name
                inst'.Instance.name;
              check Alcotest.bool "graph equal" true
                (Gdpn_graph.Graph.equal inst.Instance.graph
                   inst'.Instance.graph);
              check Alcotest.bool "kinds equal" true
                (List.for_all
                   (fun v ->
                     Gdpn_core.Label.equal
                       (Instance.kind_of inst v)
                       (Instance.kind_of inst' v))
                   (List.init (Instance.order inst) Fun.id)))
          [
            Gdpn_core.Small_n.g1 ~k:2;
            Gdpn_core.Special.g62 ();
            Gdpn_core.Family.build ~n:9 ~k:2;
            Gdpn_core.Circulant_family.build ~n:22 ~k:4;
          ]);
    tc "deserialized instances still verify" (fun () ->
        let inst = Gdpn_core.Special.g62 () in
        match Serial.of_string (Serial.to_string inst) with
        | Error e -> Alcotest.fail e
        | Ok inst' ->
          check Alcotest.bool "2-GD" true
            (Gdpn_core.Verify.is_k_gd (Gdpn_core.Verify.exhaustive inst')));
    tc "parse errors name the problem" (fun () ->
        let expect_error text fragment =
          match Serial.of_string text with
          | Ok _ -> Alcotest.failf "expected failure for %S" text
          | Error e ->
            check Alcotest.bool
              (Printf.sprintf "%S mentions %S" e fragment)
              true
              (Testutil.contains_substring e fragment)
        in
        expect_error "n 1\nk 1\nkinds PII" "header";
        expect_error "gdpn 2\n" "version";
        expect_error "gdpn 1\nk 1\nkinds P" "missing 'n'";
        expect_error "gdpn 1\nn 1\nkinds P" "missing 'k'";
        expect_error "gdpn 1\nn 1\nk 1" "missing 'kinds'";
        expect_error "gdpn 1\nn 1\nk 1\nkinds PXP" "kind";
        expect_error "gdpn 1\nn 1\nk 1\nkinds PP\nedge 0" "bad edge";
        expect_error "gdpn 1\nn 1\nk 1\nkinds PP\nedge 0 0" "self-loop";
        expect_error "gdpn 1\nn 0\nk 1\nkinds PP" "n must be";
        expect_error "gdpn 1\nnonsense here\nn 1\nk 1\nkinds P" "unknown key");
    tc "comments and blank lines are ignored" (fun () ->
        let text =
          "# a comment\n\ngdpn 1\nn 1\nk 1\nname test\nkinds PPII OO"
        in
        (* kinds has a space: trimmed as one token, so this is invalid — fix
           to a clean string. *)
        ignore text;
        let text =
          "# comment\n\ngdpn 1\nn 1\nk 1\nname test\nkinds PPIIOO\nedge 0 1\n\nedge 2 0\nedge 3 1\nedge 4 0\nedge 5 1"
        in
        match Serial.of_string text with
        | Error e -> Alcotest.fail e
        | Ok inst ->
          check Alcotest.int "order" 6 (Instance.order inst);
          check Alcotest.string "name" "test" inst.Instance.name);
    tc "save/load through a file" (fun () ->
        let inst = Gdpn_core.Small_n.g3 ~k:2 in
        let path = Filename.temp_file "gdpn_serial" ".gdpn" in
        Serial.save ~path inst;
        (match Serial.load ~path with
        | Ok inst' ->
          check Alcotest.bool "graph" true
            (Gdpn_graph.Graph.equal inst.Instance.graph inst'.Instance.graph)
        | Error e -> Alcotest.fail e);
        Sys.remove path);
  ]

let () =
  Alcotest.run "gdpn_baselines"
    [
      ("hayes", hayes_tests);
      ("spares", spares_tests);
      ("rosenberg", rosenberg_tests);
      ("hayes-cycle", hayes_cycle_tests);
      ("survival", survival_tests);
      ("compare", compare_tests);
      ("serial", serial_tests);
    ]
