(* Tests for the gdpd serving stack: Shard_cache bounds, eviction order
   and determinism; a multi-domain hammer proving K domains can read and
   insert concurrently without corrupting the table (every plan that
   comes back revalidates, occupancy stays bounded); the Protocol
   payload vocabulary (round-trips, torn and corrupt frames, mirroring
   test_resume's Codec coverage); and an in-process end-to-end daemon —
   Server.run on a temp Unix socket, a real Client crosschecking every
   response against direct Engine.solve. *)

open Gdpn_core
module Bitset = Gdpn_graph.Bitset
module Codec = Gdpn_engine.Codec
module Engine = Gdpn_engine.Engine
module Shard_cache = Gdpn_engine.Shard_cache
module Protocol = Gdpn_server.Protocol
module Server = Gdpn_server.Server
module Client = Gdpn_server.Client

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let inst9 = Family.build ~n:9 ~k:2
let order9 = Instance.order inst9

let mask_of order elts = Bitset.of_list order elts

(* ------------------------------------------------------------------ *)
(* Shard_cache units                                                   *)
(* ------------------------------------------------------------------ *)

let test_cache_basics () =
  let c = Shard_cache.create ~shards:4 ~capacity:16 () in
  check Alcotest.int "empty" 0 (Shard_cache.length c);
  let k1 = mask_of 32 [ 1; 5 ] in
  Shard_cache.add c k1 "a";
  check Alcotest.(option string) "hit" (Some "a") (Shard_cache.find_opt c k1);
  (* the key is copied on insert: mutating the caller's mask afterwards
     must not disturb the resident binding *)
  Bitset.add k1 9;
  check Alcotest.(option string) "mutated probe misses" None
    (Shard_cache.find_opt c k1);
  Bitset.remove k1 9;
  check Alcotest.(option string) "original key still resident" (Some "a")
    (Shard_cache.find_opt c k1);
  (* first write wins *)
  Shard_cache.add c k1 "b";
  check Alcotest.(option string) "duplicate insert dropped" (Some "a")
    (Shard_cache.find_opt c k1);
  check Alcotest.int "one resident" 1 (Shard_cache.length c)

let test_cache_eviction_bound () =
  let c = Shard_cache.create ~shards:2 ~capacity:8 () in
  let cap = Shard_cache.capacity c in
  (* way more distinct keys than capacity *)
  for i = 0 to 199 do
    Shard_cache.add c (mask_of 512 [ i; i + 300 ]) i
  done;
  check Alcotest.bool "bounded" true (Shard_cache.length c <= cap);
  check Alcotest.bool "evictions happened" true (Shard_cache.evictions c > 0);
  check Alcotest.int "residents + evictions = inserts" 200
    (Shard_cache.length c + Shard_cache.evictions c);
  let residents, evictions =
    Array.fold_left
      (fun (r, e) (sr, se) -> (r + sr, e + se))
      (0, 0)
      (Shard_cache.shard_stats c)
  in
  check Alcotest.int "shard_stats residents agree" (Shard_cache.length c)
    residents;
  check Alcotest.int "shard_stats evictions agree" (Shard_cache.evictions c)
    evictions

let test_cache_trim_and_clear () =
  let c = Shard_cache.create ~shards:2 ~capacity:32 () in
  for i = 0 to 19 do
    Shard_cache.add c (mask_of 64 [ i ]) i
  done;
  check Alcotest.int "full" 20 (Shard_cache.length c);
  Shard_cache.trim c ~keep:6;
  check Alcotest.bool "trimmed" true (Shard_cache.length c <= 6);
  check Alcotest.bool "trim counts evictions" true
    (Shard_cache.evictions c >= 14);
  let before = Shard_cache.evictions c in
  Shard_cache.clear c;
  check Alcotest.int "cleared" 0 (Shard_cache.length c);
  check Alcotest.int "clear does not count evictions" before
    (Shard_cache.evictions c)

(* Same insert sequence => same survivors: the deterministic-eviction
   pin behind the byte-identical single-domain engine guarantee. *)
let test_cache_deterministic_eviction () =
  let run () =
    let c = Shard_cache.create ~shards:4 ~capacity:12 () in
    for i = 0 to 99 do
      Shard_cache.add c (mask_of 256 [ i; (i * 7) mod 256 ]) i
    done;
    List.filter_map
      (fun i ->
        match Shard_cache.find_opt c (mask_of 256 [ i; (i * 7) mod 256 ]) with
        | Some v -> Some (i, v)
        | None -> None)
      (List.init 100 Fun.id)
  in
  check
    Alcotest.(list (pair int int))
    "same sequence, same survivors" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Multi-domain hammer                                                 *)
(* ------------------------------------------------------------------ *)

(* K domains hammer one small shared cache with overlapping key ranges:
   no crash, no torn value (every hit returns the value inserted for
   that key — key i always maps to i), occupancy stays bounded. *)
let test_cache_hammer () =
  let c = Shard_cache.create ~shards:4 ~capacity:64 () in
  let cap = Shard_cache.capacity c in
  let nkeys = 160 in
  let key i = mask_of 512 [ i; (i * 13) mod 512 ] in
  let bad = Atomic.make 0 in
  let worker seed () =
    let rng = Gdpn_faultsim.Stream.Prng.create seed in
    let scratch = Bitset.create 512 in
    for _ = 1 to 20_000 do
      let i = Gdpn_faultsim.Stream.Prng.int rng nkeys in
      Bitset.clear scratch;
      Bitset.add scratch i;
      Bitset.add scratch ((i * 13) mod 512);
      match Shard_cache.find_opt c scratch with
      | Some v -> if v <> i then Atomic.incr bad
      | None -> Shard_cache.add c scratch i
    done
  in
  let domains =
    Array.init 4 (fun d -> Domain.spawn (worker (1000 + (37 * d))))
  in
  Array.iter Domain.join domains;
  check Alcotest.int "no torn or misfiled values" 0 (Atomic.get bad);
  check Alcotest.bool "occupancy bounded" true (Shard_cache.length c <= cap);
  check Alcotest.int "key 3 maps to 3 or is absent" 3
    (match Shard_cache.find_opt c (key 3) with Some v -> v | None -> 3)

(* The real thing: K Engine.reader handles over one shared engine with a
   tiny cache limit (so eviction churns constantly), each solving a
   random in-spec-and-beyond fault workload.  Every Pipeline outcome —
   cached, spliced or fresh — must revalidate against its fault set. *)
let test_engine_reader_hammer =
  QCheck.Test.make ~count:4 ~name:"domain-parallel readers return valid plans"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let engine = Engine.create ~cache_limit:48 inst9 in
      let invalid = Atomic.make 0 in
      let worker d () =
        let reader = Engine.reader engine in
        let rng = Gdpn_faultsim.Stream.Prng.create (seed + (101 * d)) in
        let faults = Bitset.create order9 in
        for _ = 1 to 400 do
          Bitset.clear faults;
          (* 0..k+1 faults: mostly in-spec, some beyond *)
          let size = Gdpn_faultsim.Stream.Prng.int rng (inst9.Instance.k + 2) in
          for _ = 1 to size do
            Bitset.add faults (Gdpn_faultsim.Stream.Prng.int rng order9)
          done;
          match Engine.solve reader ~faults with
          | Gdpn_core.Reconfig.Pipeline p ->
            if not (Pipeline.is_valid inst9 ~faults p.Pipeline.nodes) then
              Atomic.incr invalid
          | Gdpn_core.Reconfig.No_pipeline | Gdpn_core.Reconfig.Gave_up -> ()
        done
      in
      let domains = Array.init 4 (fun d -> Domain.spawn (worker d)) in
      Array.iter Domain.join domains;
      Atomic.get invalid = 0
      && Engine.cache_size engine <= Engine.cache_capacity engine)

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                                *)
(* ------------------------------------------------------------------ *)

let requests =
  [
    Protocol.Hello;
    Protocol.Solve { inst = 0; faults = [] };
    Protocol.Solve { inst = 3; faults = [ 0; 7; 16 ] };
    Protocol.Batch { inst = 1; masks = [] };
    Protocol.Batch { inst = 0; masks = [ []; [ 2 ]; [ 5; 9 ]; [ 1; 2; 3 ] ] };
    Protocol.Metrics_dump;
    Protocol.Shutdown;
  ]

let responses =
  [
    Protocol.Welcome { version = Protocol.version; instances = [] };
    Protocol.Welcome
      {
        version = Protocol.version;
        instances =
          [
            { Protocol.i_n = 9; i_k = 2; i_order = 17 };
            { Protocol.i_n = 6; i_k = 2; i_order = 13 };
          ];
      };
    Protocol.Outcome (Protocol.Plan [ 0; 4; 2; 16 ]);
    Protocol.Outcome Protocol.No_plan;
    Protocol.Outcome Protocol.Gave_up;
    Protocol.Outcomes [];
    Protocol.Outcomes
      [ Protocol.Plan [ 1; 2 ]; Protocol.Gave_up; Protocol.No_plan ];
    Protocol.Json "{\"a\":1}";
    Protocol.Ack;
    Protocol.Error { code = 2; message = "instance 9" };
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      check Alcotest.bool "request round-trips" true
        (Protocol.decode_request (Protocol.encode_request r) = r))
    requests

let test_response_roundtrip () =
  List.iter
    (fun r ->
      check Alcotest.bool "response round-trips" true
        (Protocol.decode_response (Protocol.encode_response r) = r))
    responses

let test_bad_payloads () =
  let rejects s =
    match Protocol.decode_request s with
    | _ -> false
    | exception Protocol.Bad_message _ -> true
  in
  check Alcotest.bool "empty payload rejected" true (rejects "");
  check Alcotest.bool "unknown tag rejected" true (rejects "Z");
  check Alcotest.bool "truncated Solve rejected" true (rejects "S\x05");
  (* trailing junk after a well-formed message *)
  check Alcotest.bool "trailing junk rejected" true
    (rejects (Protocol.encode_request Protocol.Hello ^ "junk"));
  check Alcotest.bool "oversized batch count rejected" true
    (rejects "B\x00\xff\xff\xff\x7f")

(* Framed protocol messages through the torn/corrupt gauntlet, exactly
   as test_resume does for checkpoint frames: every strict prefix is
   incomplete, any flipped payload byte fails the Adler-32. *)
let test_torn_and_corrupt_frames () =
  let payload =
    Protocol.encode_request (Protocol.Batch { inst = 0; masks = [ [ 1; 2 ] ] })
  in
  let f = Codec.frame payload in
  (match Codec.read_frame f 0 with
  | Some (p, _) ->
    check Alcotest.bool "framed request decodes" true
      (Protocol.decode_request p
      = Protocol.Batch { inst = 0; masks = [ [ 1; 2 ] ] })
  | None -> Alcotest.fail "complete frame did not parse");
  for len = 0 to String.length f - 1 do
    match Codec.read_frame (String.sub f 0 len) 0 with
    | None -> ()
    | Some _ -> Alcotest.failf "torn frame (%d bytes) parsed" len
  done;
  for i = 0 to String.length f - 1 do
    let b = Bytes.of_string f in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
    match Codec.read_frame (Bytes.to_string b) 0 with
    | None -> ()
    | Some (p, _) ->
      if p <> payload then ()
      else Alcotest.failf "corrupt frame (byte %d) accepted" i
  done

(* A frame's length header: 4 bytes, little-endian. *)
let le32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

(* Whatever bytes arrive, the frame reader answers with a frame, a
   clean [None] or [Corrupt] — and, capped, allocates nothing a header
   alone asks for. *)
let test_frame_reader_total =
  let cap = 1 lsl 12 in
  QCheck.Test.make ~count:500 ~name:"frame reader: a frame, None or Corrupt"
    QCheck.(
      oneof
        [
          string;
          (* a plausible length header, then arbitrary bytes *)
          map
            (fun (len, rest) -> le32 len ^ rest)
            (pair (int_bound (2 * cap)) string);
          (* a real frame with one byte replaced *)
          map
            (fun (payload, i, c) ->
              let f = Bytes.of_string (Codec.frame payload) in
              Bytes.set f (i mod Bytes.length f) c;
              Bytes.to_string f)
            (triple string small_nat char);
        ])
    (fun bytes ->
      Testutil.with_temp_file (fun path ->
          Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
          In_channel.with_open_bin path (fun ic ->
              match Codec.input_frame ~max_len:cap ic with
              | Some _ | None -> true
              | exception Codec.Corrupt _ -> true)))

(* ------------------------------------------------------------------ *)
(* End-to-end daemon                                                   *)
(* ------------------------------------------------------------------ *)

let with_daemon ?(workers = 2) instances f =
  (* Server.run ignores SIGPIPE for the whole process before it listens,
     so no write in here can die of a closed peer. *)
  let path = Filename.temp_file "gdpd_test" ".sock" in
  Sys.remove path;
  let listen = Server.Unix_sock path in
  let cfg = { Server.default_config with instances; listen; workers } in
  let daemon = Domain.spawn (fun () -> Server.run cfg) in
  Fun.protect
    ~finally:(fun () ->
      (* Best-effort shutdown before the join: if the body raised (a
         failed assertion included) without shutting the daemon down,
         an unconditional join would hang forever and mask the actual
         failure.  When the body already shut it down, the connect
         below just fails and is ignored. *)
      (try
         let c = Client.connect ~attempts:3 listen in
         (try Client.shutdown c with _ -> ());
         Client.close c
       with _ -> ());
      Domain.join daemon;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f listen)

let test_end_to_end () =
  with_daemon [ (9, 2); (6, 2) ] @@ fun listen ->
  let client = Client.connect ~attempts:100 listen in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  (* hello advertises the fleet *)
  let infos = Client.hello client in
  check Alcotest.int "fleet size" 2 (List.length infos);
  check Alcotest.int "slot 0 order" order9 (List.nth infos 0).Protocol.i_order;
  (* every response must equal a direct solve on a fresh local engine
     with the daemon's defaults — the serve-smoke crosscheck, in
     process *)
  let oracle = Engine.create inst9 in
  let rng = Gdpn_faultsim.Stream.Prng.create 42 in
  let pool =
    List.init 60 (fun _ ->
        let size = Gdpn_faultsim.Stream.Prng.int rng (inst9.Instance.k + 2) in
        List.init size (fun _ -> Gdpn_faultsim.Stream.Prng.int rng order9))
  in
  List.iter
    (fun faults ->
      let got = Client.solve client ~inst:0 faults in
      let want =
        Protocol.outcome_of_reconfig (Engine.solve_list oracle ~faults)
      in
      check Alcotest.bool "solve matches direct engine" true
        (Protocol.equal_outcome got want))
    pool;
  (* batch answers in request order, same oracle *)
  let batch = Client.solve_batch client ~inst:0 pool in
  check Alcotest.int "batch length" (List.length pool) (List.length batch);
  List.iter2
    (fun faults got ->
      let want =
        Protocol.outcome_of_reconfig (Engine.solve_list oracle ~faults)
      in
      check Alcotest.bool "batch matches direct engine" true
        (Protocol.equal_outcome got want))
    pool batch;
  (* error paths *)
  (match Client.solve client ~inst:9 [ 0 ] with
  | exception Client.Server_error { code; _ } ->
    check Alcotest.int "unknown instance code" Protocol.err_unknown_instance
      code
  | _ -> Alcotest.fail "unknown instance accepted");
  (match Client.solve client ~inst:0 [ order9 + 5 ] with
  | exception Client.Server_error { code; _ } ->
    check Alcotest.int "bad element code" Protocol.err_bad_element code
  | _ -> Alcotest.fail "out-of-range element accepted");
  (* metrics snapshot includes the server and cache counters *)
  let json = Client.metrics client in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun key ->
      check Alcotest.bool (key ^ " in metrics") true (contains json key))
    [ "server.requests"; "server.connections"; "engine.cache_shard_hits" ];
  Client.shutdown client

(* Two concurrent clients against the same daemon.  The byte-identity
   pin (PROTOCOL.md) covers a fresh daemon over a single connection;
   with two clients racing, one client's inserts seed the shared cache
   for the other, so a solve may legitimately splice to a
   different-but-valid plan than a private oracle replay would.  What
   concurrency must never change: the outcome *kind* (plan-exists /
   no-plan / gave-up is a fact of graph + mask on this instance, not of
   cache state), and every served plan must be a valid pipeline for its
   fault set. *)
let test_two_clients () =
  with_daemon ~workers:2 [ (9, 2) ] @@ fun listen ->
  let bad_kind = Atomic.make 0 in
  let bad_plan = Atomic.make 0 in
  let client_domain seed () =
    let client = Client.connect ~attempts:100 listen in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    let oracle = Engine.create inst9 in
    let scratch = Bitset.create order9 in
    let rng = Gdpn_faultsim.Stream.Prng.create seed in
    for _ = 1 to 40 do
      let size = Gdpn_faultsim.Stream.Prng.int rng (inst9.Instance.k + 1) in
      let faults =
        List.init size (fun _ -> Gdpn_faultsim.Stream.Prng.int rng order9)
      in
      let got = Client.solve client ~inst:0 faults in
      let want =
        Protocol.outcome_of_reconfig (Engine.solve_list oracle ~faults)
      in
      (match (got, want) with
      | Protocol.Plan _, Protocol.Plan _
      | Protocol.No_plan, Protocol.No_plan
      | Protocol.Gave_up, Protocol.Gave_up -> ()
      | _ -> Atomic.incr bad_kind);
      match got with
      | Protocol.Plan nodes ->
        Bitset.clear scratch;
        List.iter (Bitset.add scratch) faults;
        if not (Pipeline.is_valid inst9 ~faults:scratch nodes) then
          Atomic.incr bad_plan
      | Protocol.No_plan | Protocol.Gave_up -> ()
    done
  in
  let a = Domain.spawn (client_domain 7) in
  let b = Domain.spawn (client_domain 11) in
  Domain.join a;
  Domain.join b;
  check Alcotest.int "outcome kinds agree across concurrent clients" 0
    (Atomic.get bad_kind);
  check Alcotest.int "every served plan is valid for its fault set" 0
    (Atomic.get bad_plan);
  let client = Client.connect ~attempts:100 listen in
  Client.shutdown client;
  Client.close client

(* A raw client socket, for peers that misbehave below the Client API. *)
let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 0 ->
      Unix.sleepf 0.05;
      go (n - 1)
  in
  go 100

let rec send fd s pos =
  if pos < String.length s then
    send fd s (pos + Unix.write_substring fd s pos (String.length s - pos))

(* Send Hello on a fresh connection; the Welcome must come back within
   [timeout] seconds and list [fleet] instances. *)
let expect_welcome path ~timeout ~fleet =
  let fd = raw_connect path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  send fd (Codec.frame (Protocol.encode_request Protocol.Hello)) 0;
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> Alcotest.failf "Hello not answered within %.0f s" timeout
  | _ ->
    let ic = Unix.in_channel_of_descr fd in
    (match Codec.input_frame ic with
    | Some payload -> (
      match Protocol.decode_response payload with
      | Protocol.Welcome { instances; _ } ->
        check Alcotest.int "fleet size" fleet (List.length instances)
      | _ -> Alcotest.fail "expected Welcome")
    | None -> Alcotest.fail "connection closed before Welcome")

(* A header that declares one byte more than the fleet's longest
   request must not pin the only worker: the daemon drops that
   connection unread and answers the next client's Hello. *)
let test_frame_cap () =
  with_daemon ~workers:1 [ (3, 2) ] @@ fun listen ->
  let path =
    match listen with Server.Unix_sock p -> p | Server.Tcp _ -> assert false
  in
  let cap =
    Protocol.max_request_len ~order:(Instance.order (Family.build ~n:3 ~k:2))
  in
  let hog = raw_connect path in
  Fun.protect ~finally:(fun () -> Unix.close hog) @@ fun () ->
  send hog (le32 (cap + 1)) 0;
  expect_welcome path ~timeout:10.0 ~fleet:1

(* ------------------------------------------------------------------ *)
(* The built gdpd as a child process                                   *)
(* ------------------------------------------------------------------ *)

(* The in-process daemon above shares this process, which ignores
   SIGPIPE, so it cannot see what a deployed gdpd does when a peer hangs
   up early.  [with_gdpd] starts the executable dune built next to this
   one, with SIGPIPE at its default disposition, as a deployment would. *)
let gdpd_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/gdpd.exe"

let with_gdpd args f =
  let path = Filename.temp_file "gdpd_child" ".sock" in
  Sys.remove path;
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  (* An ignored signal stays ignored across exec: reset it for the child. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore)
      (fun () ->
        Unix.create_process gdpd_exe
          (Array.of_list ((gdpd_exe :: args) @ [ "--socket"; path ]))
          Unix.stdin out_w Unix.stderr)
  in
  Unix.close out_w;
  Fun.protect
    ~finally:(fun () ->
      (* [f] may already have reaped a daemon that died. *)
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Unix.close out_r;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* gdpd prints its ready line once the socket listens. *)
  let seen = Buffer.create 128 and chunk = Bytes.create 256 in
  let rec wait_ready () =
    let out = Buffer.contents seen in
    let ready =
      List.exists
        (String.starts_with ~prefix:"gdpd: serving")
        (String.split_on_char '\n' out)
    in
    if not ready then
      match Unix.select [ out_r ] [] [] 60.0 with
      | [], _, _ -> Alcotest.fail "gdpd printed no ready line within 60 s"
      | _ ->
        let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.failf "gdpd exited before ready: %s" out;
        Buffer.add_subbytes seen chunk 0 n;
        wait_ready ()
  in
  wait_ready ();
  f ~pid ~path

(* Three large Batch frames, each on a connection closed right after
   sending: every answer meets a closed peer.  Each must end only its
   own connection; the daemon must keep serving. *)
let test_peer_hangs_up () =
  with_gdpd [ "--instances"; "30:4"; "--workers"; "1" ] @@ fun ~pid ~path ->
  let order = Instance.order (Family.build ~n:30 ~k:4) in
  let rng = Random.State.make [| 141 |] in
  let masks =
    List.init 4_000 (fun _ ->
        List.init (Random.State.int rng 5) (fun _ ->
            Random.State.int rng order))
  in
  let frame =
    Codec.frame (Protocol.encode_request (Protocol.Batch { inst = 0; masks }))
  in
  for _ = 1 to 3 do
    let fd = raw_connect path in
    send fd frame 0;
    Unix.close fd
  done;
  let check_alive () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _, Unix.WSIGNALED s when s = Sys.sigpipe ->
      Alcotest.fail "gdpd died of SIGPIPE"
    | _, _ -> Alcotest.fail "gdpd is gone"
  in
  (try expect_welcome path ~timeout:60.0 ~fleet:1
   with e -> check_alive (); raise e);
  check_alive ()

let () =
  Alcotest.run "server"
    [
      ( "shard-cache",
        [
          tc "basics: insert, copy-on-insert, first-write-wins"
            test_cache_basics;
          tc "eviction keeps occupancy bounded" test_cache_eviction_bound;
          tc "trim counts evictions, clear does not" test_cache_trim_and_clear;
          tc "eviction order is deterministic"
            test_cache_deterministic_eviction;
          tc "multi-domain hammer" test_cache_hammer;
        ] );
      ( "engine-readers",
        [ QCheck_alcotest.to_alcotest test_engine_reader_hammer ] );
      ( "protocol",
        [
          tc "request round-trips" test_request_roundtrip;
          tc "response round-trips" test_response_roundtrip;
          tc "malformed payloads rejected" test_bad_payloads;
          tc "torn and corrupt frames rejected" test_torn_and_corrupt_frames;
          QCheck_alcotest.to_alcotest test_frame_reader_total;
        ] );
      ( "daemon",
        [
          tc "end-to-end: solve, batch, errors, metrics, shutdown"
            test_end_to_end;
          tc "two concurrent clients crosscheck green" test_two_clients;
          tc "a header over the frame cap frees the worker" test_frame_cap;
        ] );
      ( "gdpd",
        [ tc "a peer that hangs up early ends only its connection"
            test_peer_hangs_up ] );
    ]
