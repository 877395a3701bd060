(* Tests for the precompiled plan warehouse (Engine.Plan_store) and its
   L2 seat under the sharded RAM cache: a QCheck oracle proving
   store-backed solves agree with the plain solver (byte-identical for
   flat stores, valid-and-verdict-identical for orbit-transported
   lookups), a corruption gauntlet (every strict truncation and every
   single-byte flip either fails open/validate or never changes a
   lookup result — a degraded store can cost time, never correctness),
   the frozen digests of stores compiled by the production compiler,
   the compile journal's refusal of a foreign spec, and a multi-domain
   reader hammer mirroring test_server's with the store attached.
   Resuming a compile is a checkpoint test (test_resume). *)

open Gdpn_core
module Bitset = Gdpn_graph.Bitset
module Auto = Gdpn_graph.Auto
module Combinat = Gdpn_graph.Combinat
module Engine = Gdpn_engine.Engine
module Plan_store = Gdpn_engine.Plan_store
module Checkpoint = Gdpn_engine.Checkpoint
module Prng = Gdpn_faultsim.Stream.Prng

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let temp_store () = Filename.temp_file "gdpn-store" ".store"

(* The production compiler, in process: what `gdp compile-plans` runs,
   one representative per orbit (one per set under a trivial group),
   each solved from scratch. *)
let compile ?max_size ?domains ?(model = Fault_model.node) inst path =
  match Engine.compile_plans ?max_size ?domains (model inst) ~path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compile: %s" e

(* G(3,2)'s symmetry group is trivial, so its node-model store is flat:
   one record per fault set. *)
let inst3 = Family.build ~n:3 ~k:2
let inst6 = Family.build ~n:6 ~k:2
let inst9 = Family.build ~n:9 ~k:2

let with_store ?max_size inst f =
  let path = temp_store () in
  compile ?max_size inst path;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let random_faults rng inst =
  let order = Instance.order inst in
  let faults = Bitset.create order in
  (* 0..k+1 faults: mostly in-spec, some past the store's bound *)
  let size = Prng.int rng (inst.Instance.k + 2) in
  for _ = 1 to size do
    Bitset.add faults (Prng.int rng order)
  done;
  faults

(* ------------------------------------------------------------------ *)
(* Writer / reader round-trip basics                                   *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_store inst3 @@ fun path ->
  let nitems = Combinat.count_up_to (Instance.order inst3) inst3.Instance.k in
  match Plan_store.open_path ~path with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok s ->
    check Alcotest.int "records = enumerated sets" nitems
      (Plan_store.records s);
    check Alcotest.int "flat: total = records" (Plan_store.records s)
      (Plan_store.total_sets s);
    check Alcotest.bool "not orbit compressed" false
      (Plan_store.orbit_compressed s);
    check Alcotest.int "model id" 0 (Plan_store.model_id s);
    (match Plan_store.validate s with
    | Ok n -> check Alcotest.int "validate counts records" nitems n
    | Error e -> Alcotest.failf "validate: %s" e);
    (* the no-fault plan is the cold-start first response *)
    (match Plan_store.lookup s [||] with
    | Some (Reconfig.Pipeline _) -> ()
    | _ -> Alcotest.fail "empty set should hold the fault-free pipeline");
    check Alcotest.bool "mmap accounted" true (Plan_store.mmap_bytes s > 0);
    Plan_store.close s

let test_orbit_compresses () =
  (* G(1,4) has a large symmetry group: the orbit store must hold at
     least 10x fewer records than one-plan-per-fault-set, the record
     count of a flat store (the compression acceptance bar, checked at
     unit scale). *)
  let inst = Family.build ~n:1 ~k:4 in
  let flat = Combinat.count_up_to (Instance.order inst) 3 in
  with_store ~max_size:3 inst @@ fun path ->
  match Plan_store.open_path ~path with
  | Ok orbit ->
    check Alcotest.int "same coverage" flat (Plan_store.total_sets orbit);
    check Alcotest.bool
      (Printf.sprintf "10x fewer records (%d orbit vs %d flat)"
         (Plan_store.records orbit) flat)
      true
      (flat >= 10 * Plan_store.records orbit);
    Plan_store.close orbit
  | Error e -> Alcotest.failf "open: %s" e

let test_gave_up_not_stored () =
  let w =
    Plan_store.writer ~digest:"d" ~model_id:0 ~orbit:false ~usize:8 ~order:8
      ~max_size:2
  in
  Plan_store.add w ~set:[| 1 |] ~count:1 Reconfig.Gave_up;
  Plan_store.add w ~set:[| 2 |] ~count:1 Reconfig.No_pipeline;
  check Alcotest.int "gave-up tallied" 1 (Plan_store.gave_up w);
  let path = temp_store () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Plan_store.write w ~path;
  match Plan_store.open_path ~path with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok s ->
    check Alcotest.int "only the decided record stored" 1
      (Plan_store.records s);
    (match Plan_store.lookup s [| 1 |] with
    | None -> ()
    | Some _ -> Alcotest.fail "a budget Gave_up must read as a store miss");
    (match Plan_store.lookup s [| 2 |] with
    | Some Reconfig.No_pipeline -> ()
    | _ -> Alcotest.fail "decided verdict lost");
    Plan_store.close s

let test_attach_rejects_wrong_instance () =
  with_store inst6 @@ fun path ->
  let engine = Engine.create inst9 in
  (match Engine.attach_store engine ~path with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "store for G(6,2) attached to a G(9,2) engine");
  check Alcotest.bool "nothing attached" true
    (Engine.plan_store engine = None)

(* ------------------------------------------------------------------ *)
(* Oracle: store-backed solves agree with the plain solver             *)
(* ------------------------------------------------------------------ *)

let same_verdict inst ~faults got want =
  match (got, want) with
  | Reconfig.Pipeline p, Reconfig.Pipeline _ ->
    Pipeline.is_valid inst ~faults p.Pipeline.nodes
  | Reconfig.No_pipeline, Reconfig.No_pipeline -> true
  | Reconfig.Gave_up, Reconfig.Gave_up -> true
  | _ -> false

(* Flat store: every in-bound set is present and holds exactly the plain
   solver's output, so a store-backed engine must answer byte-identical
   to an uncached solve there.  Past the bound the store misses and the
   engine's warmed L1 legitimately enables splice-composed plans, so
   only the verdict (and plan validity) must agree. *)
let test_flat_oracle =
  QCheck.Test.make ~count:30 ~name:"flat store lookup == fresh Engine.solve"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      with_store inst3 @@ fun path ->
      let store_engine = Engine.create inst3 in
      (match Engine.attach_store store_engine ~path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "attach: %s" e);
      let fresh = Engine.create inst3 in
      let rng = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let faults = random_faults rng inst3 in
        let got = Engine.solve store_engine ~faults in
        let want = Engine.solve ~cache:false fresh ~faults in
        if Bitset.cardinal faults <= inst3.Instance.k then begin
          if got <> want then ok := false
        end
        else if not (same_verdict inst3 ~faults got want) then ok := false
      done;
      !ok)

(* Orbit store: a non-representative key canonicalizes and transports.
   The transported plan is not necessarily the plan a fresh solve would
   pick, but the verdict must match and every Pipeline must validate;
   and a key that IS its orbit's representative must come back
   byte-identical to the fresh solve that compiled it.  Every in-bound
   set must be served by the store itself: a transport that failed
   revalidation would fall back to splicing or solving and still pass
   the verdict checks, so the engine's stats must show neither.  Run on
   groups of order 2 (G(6,2)), 32 (G(3,5)) and 240 (G(1,4)). *)
let orbit_oracle ?(suffix = "") inst =
  QCheck.Test.make ~count:30
    ~name:("orbit store: transported lookups valid, verdicts exact" ^ suffix)
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      with_store inst @@ fun path ->
      let store_engine = Engine.create inst in
      (match Engine.attach_store store_engine ~path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "attach: %s" e);
      let group = Instance.symmetry inst in
      let fresh = Engine.create inst in
      let order = Instance.order inst in
      let rng = Prng.create seed in
      let ok = ref true in
      let not_from_store () =
        let s = Engine.stats store_engine in
        s.Engine.full_solves + s.Engine.splices
      in
      let served_from_store f =
        let before = not_from_store () in
        let outcome = f () in
        if not_from_store () <> before then ok := false;
        outcome
      in
      for _ = 1 to 100 do
        let faults = random_faults rng inst in
        let in_bound = Bitset.cardinal faults <= inst.Instance.k in
        let solve () = Engine.solve store_engine ~faults in
        let got = if in_bound then served_from_store solve else solve () in
        let want = Engine.solve ~cache:false fresh ~faults in
        if not (same_verdict inst ~faults got want) then ok := false;
        (* representative keys inside the bound hit without transport
           and must come back byte-identical to the solve that compiled
           them *)
        if in_bound then begin
          let canon =
            Auto.canonical_set group (Array.of_list (Bitset.elements faults))
          in
          let cmask = Bitset.of_list order (Array.to_list canon) in
          if served_from_store (fun () -> Engine.solve store_engine ~faults:cmask)
             <> Engine.solve ~cache:false fresh ~faults:cmask
          then ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Corruption gauntlet: fail closed, never a wrong plan                *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Reference answers from the intact store, for "never a wrong plan"
   comparisons on mutants that still open and validate. *)
let all_sets inst max_size =
  let order = Instance.order inst in
  let acc = ref [] in
  Combinat.iter_subsets_up_to order max_size (fun buf len ->
      acc := Array.sub buf 0 len :: !acc);
  List.rev !acc

let lookups_agree reference mutant sets =
  List.for_all
    (fun set ->
      match Plan_store.lookup mutant set with
      | None -> true (* fail closed: a miss is always safe *)
      | Some o -> Some o = Plan_store.lookup reference set)
    sets

let test_truncation_fails_closed () =
  with_store inst3 @@ fun path ->
  let bytes = read_file path in
  let len = String.length bytes in
  let sets = all_sets inst3 inst3.Instance.k in
  let reference =
    match Plan_store.open_path ~path with
    | Ok s -> s
    | Error e -> Alcotest.failf "open intact: %s" e
  in
  let mutant_path = temp_store () in
  Fun.protect ~finally:(fun () -> Sys.remove mutant_path) @@ fun () ->
  let survived_intact = ref 0 in
  for cut = 0 to len - 1 do
    write_file mutant_path (String.sub bytes 0 cut);
    match Plan_store.open_path ~path:mutant_path with
    | Error _ -> ()
    | Ok s ->
      (match Plan_store.validate s with
      | Error _ -> ()
      | Ok _ -> incr survived_intact);
      (* whether or not validation caught it, lookups must never lie *)
      if not (lookups_agree reference s sets) then
        Alcotest.failf "truncation at %d byte(s) produced a wrong lookup" cut;
      Plan_store.close s
  done;
  check Alcotest.int "every strict truncation fails open_path or validate" 0
    !survived_intact;
  Plan_store.close reference

let test_byte_flips_fail_closed () =
  with_store inst3 @@ fun path ->
  let bytes = Bytes.of_string (read_file path) in
  let len = Bytes.length bytes in
  let sets = all_sets inst3 inst3.Instance.k in
  let reference =
    match Plan_store.open_path ~path with
    | Ok s -> s
    | Error e -> Alcotest.failf "open intact: %s" e
  in
  let mutant_path = temp_store () in
  Fun.protect ~finally:(fun () -> Sys.remove mutant_path) @@ fun () ->
  for pos = 0 to len - 1 do
    let orig = Bytes.get bytes pos in
    Bytes.set bytes pos (Char.chr (Char.code orig lxor 0x41));
    write_file mutant_path (Bytes.to_string bytes);
    Bytes.set bytes pos orig;
    match Plan_store.open_path ~path:mutant_path with
    | Error _ -> ()
    | Ok s ->
      (* some flips (e.g. an index slot redirected to another intact
         record) can slip past a structural walk; the inviolable
         property is that no lookup ever returns a plan the intact
         store would not have returned *)
      (match Plan_store.validate s with
      | Error _ -> ()
      | Ok _ ->
        if not (lookups_agree reference s sets) then
          Alcotest.failf "byte flip at %d produced a wrong lookup" pos);
      Plan_store.close s
  done;
  Plan_store.close reference

(* A tampered store attached to an engine must still never surface a
   wrong plan: the engine revalidates and falls back to solving. *)
let test_tampered_store_engine_fallback () =
  with_store inst3 @@ fun path ->
  let bytes = Bytes.of_string (read_file path) in
  (* smash the record region wholesale, leaving magic + header alone *)
  let start = String.length "gdpn-plan 1\n" + 64 in
  for pos = start to Bytes.length bytes - 1 do
    Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xff))
  done;
  let mutant_path = temp_store () in
  Fun.protect ~finally:(fun () -> Sys.remove mutant_path) @@ fun () ->
  write_file mutant_path (Bytes.to_string bytes);
  match Plan_store.open_path ~path:mutant_path with
  | Error _ -> () (* fine: refused outright *)
  | Ok s ->
    Plan_store.close s;
    let engine = Engine.create inst3 in
    (match Engine.attach_store engine ~path:mutant_path with
    | Error _ -> ()
    | Ok () ->
      let fresh = Engine.create inst3 in
      let rng = Prng.create 7 in
      for _ = 1 to 200 do
        let faults = random_faults rng inst3 in
        let got = Engine.solve engine ~faults in
        let want = Engine.solve ~cache:false fresh ~faults in
        if not (same_verdict inst3 ~faults got want) then
          Alcotest.fail "tampered store changed a served verdict"
      done)

(* ------------------------------------------------------------------ *)
(* Frozen store digests                                                *)
(* ------------------------------------------------------------------ *)

(* A store's bytes are a function of the instance, model, mode and size
   bound alone — never of the domain count or the drain's order.  These
   digests were taken from the compiler that solved its own list of
   representatives, before compiles became task drains; G(3,2)'s flat
   store was pinned when compiles still took a flag forcing flat
   enumeration, and its trivial group compiled the same bytes without
   it. *)
let test_frozen_digests () =
  let mixed inst = Option.get (Fault_model.of_name inst "mixed") in
  List.iter
    (fun (label, (n, k), model, max_size, domains, md5) ->
      let path = temp_store () in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      compile ?model ?max_size ?domains (Family.build ~n ~k) path;
      check Alcotest.string label md5 (Digest.to_hex (Digest.file path)))
    [
      ("G(3,5)", (3, 5), None, None, None, "7ad1e5685fc818560c13d704f6bc7880");
      ("G(1,5)", (1, 5), None, None, None, "71c05356b12f22185875199f5ad75cf5");
      ("G(9,2)", (9, 2), None, None, None, "e26eae69e39da862621089394ac2ce63");
      ("G(3,2) flat", (3, 2), None, None, None,
       "99f648aff3698a099923dd90a54ac477");
      ("mixed G(3,2)", (3, 2), Some mixed, None, None,
       "ffb9528eb550ecc24f0eda6f939c3469");
      ("G(30,4) up to 3", (30, 4), None, Some 3, None,
       "8d48e8c37eea68b06eb9bbc3479599f4");
      ("G(30,4) up to 3 on 2 domains", (30, 4), None, Some 3, Some 2,
       "8d48e8c37eea68b06eb9bbc3479599f4");
    ]

(* ------------------------------------------------------------------ *)
(* Compile journal                                                     *)
(* ------------------------------------------------------------------ *)

(* A compile's journal is its checkpoint: a [gdpn-ckpt 2] file whose
   records carry witnesses.  A compile refuses to resume it under any
   other spec, and its header pins the unit decomposition too. *)
let test_journal_header_mismatch () =
  let journal = Filename.temp_file "gdpn-journal" ".ckpt" in
  let path = temp_store () in
  Fun.protect ~finally:(fun () -> Sys.remove journal; Sys.remove path)
  @@ fun () ->
  let node = Fault_model.node inst6 in
  (match Engine.compile_plans ~checkpoint:journal node ~path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compile: %s" e);
  List.iter
    (fun (label, resume) ->
      match resume () with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "journal resumed under %s" label)
    [
      ( "another instance",
        fun () ->
          Engine.compile_plans ~resume:journal (Fault_model.node inst9) ~path
      );
      ( "another model",
        fun () ->
          Engine.compile_plans ~resume:journal
            (Option.get (Fault_model.of_name inst6 "mixed"))
            ~path );
      ( "another max size",
        fun () -> Engine.compile_plans ~max_size:1 ~resume:journal node ~path );
    ];
  (match Engine.compile_plans ~resume:journal node ~path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "same spec refused: %s" e);
  match Checkpoint.load ~path:journal with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok l ->
    let h = l.Checkpoint.l_header in
    check Alcotest.bool "another unit count rejected" true
      (Result.is_error
         (Checkpoint.check_header
            ~expected:{ h with Checkpoint.h_nunits = h.Checkpoint.h_nunits + 1 }
            h))

(* ------------------------------------------------------------------ *)
(* Multi-domain reader hammer over a store-backed engine               *)
(* ------------------------------------------------------------------ *)

let test_store_reader_hammer =
  QCheck.Test.make ~count:4
    ~name:"domain-parallel readers over an L2 store return valid plans"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      with_store inst9 @@ fun path ->
      (* tiny L1 so eviction churns and the store is re-probed often *)
      let engine = Engine.create ~cache_limit:48 inst9 in
      (match Engine.attach_store engine ~path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "attach: %s" e);
      let order = Instance.order inst9 in
      let invalid = Atomic.make 0 in
      let worker d () =
        let reader = Engine.reader engine in
        let rng = Prng.create (seed + (101 * d)) in
        let faults = Bitset.create order in
        for i = 1 to 400 do
          Bitset.clear faults;
          let size = Prng.int rng (inst9.Instance.k + 2) in
          for _ = 1 to size do
            Bitset.add faults (Prng.int rng order)
          done;
          (* one domain detaches and re-attaches mid-hammer: readers
             race the swap and must stay correct either way *)
          if d = 0 && i = 200 then begin
            Engine.detach_store reader;
            match Engine.attach_store reader ~path with
            | Ok () -> ()
            | Error _ -> Atomic.incr invalid
          end;
          match Engine.solve reader ~faults with
          | Reconfig.Pipeline p ->
            if not (Pipeline.is_valid inst9 ~faults p.Pipeline.nodes) then
              Atomic.incr invalid
          | Reconfig.No_pipeline | Reconfig.Gave_up -> ()
        done
      in
      let domains = Array.init 4 (fun d -> Domain.spawn (worker d)) in
      Array.iter Domain.join domains;
      Atomic.get invalid = 0
      && Engine.cache_size engine <= Engine.cache_capacity engine)

let () =
  Alcotest.run "store"
    [
      ( "warehouse",
        [
          tc "write/open/validate/lookup round-trip" test_roundtrip;
          tc "orbit compression beats flat 10x" test_orbit_compresses;
          tc "Gave_up is tallied, never stored" test_gave_up_not_stored;
          tc "attach refuses a foreign instance" test_attach_rejects_wrong_instance;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest test_flat_oracle;
          QCheck_alcotest.to_alcotest (orbit_oracle inst6);
          QCheck_alcotest.to_alcotest
            (orbit_oracle ~suffix:" on G(3,5)" (Family.build ~n:3 ~k:5));
          QCheck_alcotest.to_alcotest
            (orbit_oracle ~suffix:" on G(1,4)" (Family.build ~n:1 ~k:4));
        ] );
      ( "corruption",
        [
          tc "every truncation fails closed" test_truncation_fails_closed;
          tc "every byte flip fails closed" test_byte_flips_fail_closed;
          tc "tampered store falls back to solving"
            test_tampered_store_engine_fallback;
        ] );
      ( "compile",
        [ tc "store digests are frozen" test_frozen_digests ] );
      ( "journal",
        [ tc "header mismatches are rejected" test_journal_header_mismatch ] );
      ( "readers",
        [ QCheck_alcotest.to_alcotest test_store_reader_hammer ] );
    ]
