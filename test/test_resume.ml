(* Tests for the out-of-core verification layer: the Codec binary
   vocabulary, checkpoint files (duplicate records, torn tails, header
   pinning), the streamed rank merge under adversarial unit-completion
   orders, and a kill-and-resume oracle — a run interrupted after any
   subset of units, resumed from its checkpoint, must reproduce the
   uninterrupted report field for field. *)

open Gdpn_core
module Auto = Gdpn_graph.Auto
module Codec = Gdpn_engine.Codec
module Checkpoint = Gdpn_engine.Checkpoint
module Engine = Gdpn_engine.Engine
module Task = Gdpn_engine.Engine.Parallel.Task

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* An instance whose declared tolerance overstates the real one, so
   verification produces genuine failures (early stop, nonempty Topk
   buffers — the interesting paths for checkpointing and merging). *)
let overclaimed inst =
  Instance.make ~graph:inst.Instance.graph ~kind:inst.Instance.kind
    ~n:inst.Instance.n
    ~k:(inst.Instance.k + 2)
    ~name:(inst.Instance.name ^ "+2") ~strategy:Instance.Generic

let check_report label (expected : Verify.report) (actual : Verify.report) =
  check Alcotest.int (label ^ ": fault_sets_checked")
    expected.Verify.fault_sets_checked actual.Verify.fault_sets_checked;
  check Alcotest.int (label ^ ": solver_calls") expected.Verify.solver_calls
    actual.Verify.solver_calls;
  check Alcotest.int (label ^ ": gave_up") expected.Verify.gave_up
    actual.Verify.gave_up;
  check Alcotest.int (label ^ ": failure count")
    (List.length expected.Verify.failures)
    (List.length actual.Verify.failures);
  List.iter2
    (fun (e : Verify.failure) (a : Verify.failure) ->
      check (Alcotest.list Alcotest.int) (label ^ ": failure faults")
        e.Verify.faults a.Verify.faults;
      check Alcotest.string (label ^ ": failure reason") e.Verify.reason
        a.Verify.reason;
      check Alcotest.int (label ^ ": failure orbit") e.Verify.orbit
        a.Verify.orbit)
    expected.Verify.failures actual.Verify.failures

(* Drain every unit of [task] sequentially with no early-stop cutoff,
   returning exactly the per-unit records the checkpoint writer appends:
   entries capped at [max_failures] by the Topk argument. *)
let unit_results ?(max_failures = 5) task =
  let n = Task.nunits task in
  let current = ref (Verify.Topk.create max_failures) in
  let record ~rank f = Verify.Topk.insert !current ~rank f in
  let process = Task.processor task ~record ~cutoff:(fun () -> max_int) in
  Array.init n (fun u ->
      current := Verify.Topk.create max_failures;
      process u;
      { Codec.r_unit = u; r_entries = Verify.Topk.to_list !current })

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_varint_roundtrip () =
  List.iter
    (fun v ->
      let b = Buffer.create 16 in
      Codec.put_uint b v;
      let v', next = Codec.get_uint (Buffer.contents b) 0 in
      check Alcotest.int (Printf.sprintf "varint %d" v) v v';
      check Alcotest.int "consumed" (Buffer.length b) next)
    [ 0; 1; 127; 128; 300; 16383; 16384; 1 lsl 40; max_int ];
  check Alcotest.bool "negative rejected" true
    (match Codec.put_uint (Buffer.create 4) (-1) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_unit_result_roundtrip () =
  let r =
    {
      Codec.r_unit = 42;
      r_entries =
        [
          (0, { Verify.faults = []; reason = "no pipeline"; orbit = 1 });
          ( 7,
            {
              Verify.faults = [ 1; 4; 6 ];
              reason = "solver budget exhausted";
              orbit = 12;
            } );
        ];
    }
  in
  let b = Buffer.create 64 in
  Codec.put_unit_result b r;
  let r', next = Codec.get_unit_result (Buffer.contents b) 0 in
  check Alcotest.bool "result round-trips" true (r = r');
  check Alcotest.int "consumed" (Buffer.length b) next

let test_frame_roundtrip () =
  let payload = "hello frame" in
  let f = Codec.frame payload in
  check Alcotest.int "overhead" Codec.frame_overhead
    (String.length f - String.length payload);
  (match Codec.read_frame f 0 with
  | Some (p, next) ->
    check Alcotest.string "payload" payload p;
    check Alcotest.int "next" (String.length f) next
  | None -> Alcotest.fail "complete frame did not parse");
  (* every strict prefix is an incomplete (torn) frame *)
  for len = 0 to String.length f - 1 do
    match Codec.read_frame (String.sub f 0 len) 0 with
    | None -> ()
    | Some _ -> Alcotest.failf "truncated frame (%d bytes) parsed" len
  done;
  (* flipping a payload byte must fail the Adler-32 check *)
  let b = Bytes.of_string f in
  Bytes.set b 5 (Char.chr (Char.code (Bytes.get b 5) lxor 0xff));
  match Codec.read_frame (Bytes.to_string b) 0 with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupted frame accepted"

(* ------------------------------------------------------------------ *)
(* Adversarial unit-completion orders through the streamed merge       *)
(* ------------------------------------------------------------------ *)

(* Per-unit records may reach the merge in any order (work stealing,
   worker processes racing, checkpoint files): every order must
   reconstruct the canonical sequential report. *)
let test_merge_orders () =
  List.iter
    (fun inst ->
      let reference = Verify.exhaustive ~max_failures:5 inst in
      let task = Task.exhaustive inst in
      let forward =
        Array.to_list (Array.map (fun r -> r.Codec.r_entries)
                         (unit_results task))
      in
      let reversed = List.rev forward in
      let interleaved =
        List.filteri (fun i _ -> i mod 2 = 1) forward
        @ List.filteri (fun i _ -> i mod 2 = 0) forward
      in
      let flattened = [ List.concat forward ] in
      List.iter
        (fun (label, sources) ->
          check_report
            (inst.Instance.name ^ ": " ^ label)
            reference
            (Task.merge task ~max_failures:5 sources))
        [
          ("forward", forward); ("reversed", reversed);
          ("interleaved", interleaved); ("flattened", flattened);
        ])
    [
      overclaimed (Small_n.g2 ~k:1); overclaimed (Small_n.g3 ~k:2);
      Family.build ~n:6 ~k:2;
    ]

(* The same under orbit x splice fusion: units are DFS-preorder spans of
   orbit representatives, ranks are the canonical size-major indices, so
   the merged report must equal the sequential orbit-reduced one. *)
let test_merge_orders_fused () =
  let inst = Family.build ~n:3 ~k:5 in
  let g = Instance.symmetry inst in
  check Alcotest.bool "G(3,5) symmetry is nontrivial" false
    (Auto.is_trivial g);
  let reference = Verify.exhaustive ~max_failures:5 ~symmetry:g inst in
  let task = Task.exhaustive ~symmetry:g inst in
  let forward =
    Array.to_list (Array.map (fun r -> r.Codec.r_entries) (unit_results task))
  in
  List.iter
    (fun (label, sources) ->
      check_report ("fused: " ^ label) reference
        (Task.merge task ~max_failures:5 sources))
    [ ("forward", forward); ("reversed", List.rev forward) ]

(* The processor contract every early stop rests on: a set ranked at or
   below the cutoff is checked, one ranked above it is skipped.  Rerun
   each unit with the cutoff at each of its own failures' ranks: exactly
   the failures up to that rank come back. *)
let test_unit_cutoff () =
  List.iter
    (fun (label, task) ->
      Array.iter
        (fun r ->
          List.iter
            (fun (cut, _) ->
              let got = ref [] in
              Task.processor task
                ~record:(fun ~rank f -> got := (rank, f) :: !got)
                ~cutoff:(fun () -> cut)
                r.Codec.r_unit;
              check Alcotest.bool
                (Printf.sprintf "%s unit %d cutoff %d" label r.Codec.r_unit
                   cut)
                true
                (List.sort compare !got
                = List.filter (fun (rank, _) -> rank <= cut) r.Codec.r_entries))
            r.Codec.r_entries)
        (unit_results ~max_failures:1_000_000 task))
    (let pairs = overclaimed (Small_n.g1 ~k:1) in
     let g2 = overclaimed (Small_n.g2 ~k:2) in
     [
       ("plain", Task.exhaustive pairs);
       ("plain no-splice", Task.exhaustive ~splice:false pairs);
       ("plain deep", Task.exhaustive (overclaimed (Small_n.g3 ~k:2)));
       ("orbit", Task.exhaustive ~symmetry:(Instance.symmetry g2) g2);
     ])

(* The bounded failure buffer every drain feeds: whatever the insertion
   order, it holds the [cap] lowest ranks, ascending.  The caps cover a
   buffer that never grows past its first allocation (16 slots), caps
   crossed while it doubles, and caps above the number of inserts. *)
let test_topk_lowest =
  QCheck.Test.make ~count:300 ~name:"Topk keeps the cap lowest ranks"
    QCheck.(
      pair
        (oneofl [ 1; 2; 5; 15; 16; 17; 31; 33; 100; 1000 ])
        (list_of_size Gen.(0 -- 300) (int_bound 100_000)))
    (fun (cap, ranks) ->
      let ranks =
        List.rev
          (List.fold_left
             (fun acc r -> if List.mem r acc then acc else r :: acc)
             [] ranks)
      in
      let t = Verify.Topk.create cap in
      List.iter
        (fun r ->
          Verify.Topk.insert t ~rank:r
            { Verify.faults = [ r ]; reason = "no pipeline"; orbit = 1 })
        ranks;
      let expected =
        List.filteri (fun i _ -> i < cap) (List.sort compare ranks)
      in
      List.map
        (fun (rank, f) -> (rank, f.Verify.faults))
        (Verify.Topk.to_list t)
      = List.map (fun r -> (r, [ r ])) expected
      && Verify.Topk.full t = (List.length ranks >= cap))

(* ------------------------------------------------------------------ *)
(* Checkpoint files                                                    *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "gdpn_ckpt" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_roundtrip () =
  let inst = overclaimed (Small_n.g3 ~k:2) in
  let reference = Verify.exhaustive ~max_failures:5 inst in
  let task = Task.exhaustive inst in
  let results = unit_results task in
  with_temp @@ fun path ->
  let w = Checkpoint.create ~path (Task.header task ~max_failures:5) in
  Array.iter (Checkpoint.append w) results;
  (* a re-delivered unit (worker retry, double append) must be dropped *)
  Checkpoint.append w results.(0);
  Checkpoint.close w;
  match Checkpoint.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check Alcotest.int "duplicates dropped" 1 l.Checkpoint.l_duplicates;
    check Alcotest.int "no torn bytes" 0 l.Checkpoint.l_torn_bytes;
    check Alcotest.int "all units recorded" (Array.length results)
      (Hashtbl.length l.Checkpoint.l_results);
    Array.iter
      (fun r ->
        match Hashtbl.find_opt l.Checkpoint.l_results r.Codec.r_unit with
        | Some r' ->
          check Alcotest.bool "record round-trips" true (r = r')
        | None -> Alcotest.failf "unit %d missing" r.Codec.r_unit)
      results;
    (* resuming with every unit recorded does no solving at all and
       still reproduces the reference *)
    check_report "fully-resumed" reference
      (Engine.Parallel.run_task ~max_failures:5 ~domains:1
         ~resumed:l.Checkpoint.l_results task)

let test_checkpoint_torn_tail () =
  let inst = overclaimed (Small_n.g2 ~k:1) in
  let task = Task.exhaustive inst in
  let results = unit_results task in
  with_temp @@ fun path ->
  let w = Checkpoint.create ~path (Task.header task ~max_failures:5) in
  Array.iter (Checkpoint.append w) results;
  Checkpoint.close w;
  (* simulate a SIGKILL mid-append: a frame header claiming 64 payload
     bytes with only 4 behind it *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x40\x00\x00\x00torn";
  close_out oc;
  match Checkpoint.load ~path with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check Alcotest.int "torn bytes discarded" 8 l.Checkpoint.l_torn_bytes;
    check Alcotest.int "records intact" (Array.length results)
      (Hashtbl.length l.Checkpoint.l_results)

let test_header_pinning () =
  let h1 = Task.header (Task.exhaustive (Family.build ~n:6 ~k:2))
             ~max_failures:5
  in
  let h2 = Task.header (Task.exhaustive (Family.build ~n:7 ~k:2))
             ~max_failures:5
  in
  let ok = function
    | Ok () -> true
    | Error (_ : string) -> false
  in
  check Alcotest.bool "same spec accepted" true
    (ok (Checkpoint.check_header ~expected:h1 h1));
  check Alcotest.bool "different instance rejected" false
    (ok (Checkpoint.check_header ~expected:h1 h2));
  check Alcotest.bool "different cap rejected" false
    (ok
       (Checkpoint.check_header ~expected:h1
          { h1 with Checkpoint.h_max_failures = 7 }));
  check Alcotest.bool "different unit count rejected" false
    (ok
       (Checkpoint.check_header ~expected:h1
          { h1 with Checkpoint.h_nunits = h1.Checkpoint.h_nunits + 1 }));
  (* the header pins a restricted universe, and it survives the file *)
  let inst = Family.build ~n:6 ~k:2 in
  let hu =
    Task.header
      (Task.exhaustive ~universe:(Instance.processors inst) inst)
      ~max_failures:5
  in
  check Alcotest.bool "different universe rejected" false
    (ok
       (Checkpoint.check_header ~expected:h1
          { hu with Checkpoint.h_nunits = h1.Checkpoint.h_nunits }));
  (with_temp @@ fun path ->
   Checkpoint.close (Checkpoint.create ~path hu);
   match Checkpoint.load ~path with
   | Ok l ->
     check Alcotest.bool "universe round-trips" true
       (l.Checkpoint.l_header = hu)
   | Error e -> Alcotest.fail e);
  (* splice changes which solver path runs, not what is enumerated or
     reported — resuming across it is sound and allowed *)
  check Alcotest.bool "splice not pinned" true
    (ok
       (Checkpoint.check_header ~expected:h1
          { h1 with Checkpoint.h_splice = false }))

(* ------------------------------------------------------------------ *)
(* Kill-and-resume oracle                                              *)
(* ------------------------------------------------------------------ *)

(* A run killed after checkpointing any subset of units, in any
   completion order, then resumed from the file, reports exactly what an
   uninterrupted run reports. *)
let test_resume_oracle =
  let inst = overclaimed (Small_n.g3 ~k:1) in
  let reference = Verify.exhaustive ~max_failures:5 inst in
  let task = Task.exhaustive inst in
  let results = unit_results task in
  let n = Array.length results in
  QCheck.Test.make ~count:25
    ~name:"resume after killing at any point reproduces the report"
    QCheck.(pair small_nat small_nat)
    (fun (survivors, shuffle_seed) ->
      let rng = Random.State.make [| shuffle_seed |] in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let j = survivors mod (n + 1) in
      let resumed =
        with_temp @@ fun path ->
        let w = Checkpoint.create ~path (Task.header task ~max_failures:5) in
        for i = 0 to j - 1 do
          Checkpoint.append w results.(perm.(i))
        done;
        Checkpoint.close w;
        match Checkpoint.load ~path with
        | Ok l -> l.Checkpoint.l_results
        | Error e -> failwith e
      in
      let report =
        Engine.Parallel.run_task ~max_failures:5 ~domains:1 ~resumed task
      in
      report = reference)

let () =
  Alcotest.run "resume"
    [
      ( "codec",
        [
          tc "varint round-trip" test_varint_roundtrip;
          tc "unit-result round-trip" test_unit_result_roundtrip;
          tc "frame round-trip, torn and corrupt frames"
            test_frame_roundtrip;
        ] );
      ( "merge",
        [
          tc "adversarial completion orders" test_merge_orders;
          tc "adversarial orders under orbit x splice fusion"
            test_merge_orders_fused;
          tc "a unit checks exactly the sets up to its cutoff"
            test_unit_cutoff;
          QCheck_alcotest.to_alcotest test_topk_lowest;
        ] );
      ( "checkpoint",
        [
          tc "round-trip with duplicate record" test_checkpoint_roundtrip;
          tc "torn tail discarded" test_checkpoint_torn_tail;
          tc "header pinning" test_header_pinning;
        ] );
      ( "oracle",
        [ QCheck_alcotest.to_alcotest test_resume_oracle ] );
    ]
