(* The repository's end-to-end benchmark: three workloads against the
   public interfaces, one JSON result line.

     bench.exe --gdpd PATH --workload W --seed N --seconds S --trace 0|1
     bench.exe --gdpd PATH --smoke

   serve-hot    gdpd G(3,5) --warm 5: every request is an L1 hit.
   serve-store  gdpd G(3,5) --store (orbit-compressed) --cache-limit 256:
                nearly every request misses L1 and is answered by the
                store through canonicalize -> lookup -> transport ->
                revalidate -> L1 insert/evict.
   verify       orbit-reduced exhaustive verification of G(3,5), then
                G(25,4), on one domain.

   Both serve workloads send the identical request stream for a seed
   (Batch frames of uniformly drawn size-5 fault sets, one lockstep
   connection, gdpd --workers 1), so any difference between them is the
   tier.  See README.md for the metric definitions and the traced run's
   cost ladders. *)

module Engine = Gdpn_engine.Engine
module Task = Gdpn_engine.Engine.Parallel.Task
module Plan_store = Gdpn_engine.Plan_store
module Shard_cache = Gdpn_engine.Shard_cache
module Codec = Gdpn_engine.Codec
module Protocol = Gdpn_server.Protocol
module Metrics = Gdpn_obs.Metrics
module Auto = Gdpn_graph.Auto
module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
open Gdpn_core

let pf = Printf.printf

(* ------------------------------------------------------------------ *)
(* Fixed workload parameters                                           *)
(* ------------------------------------------------------------------ *)

let serve_n = 3
let serve_k = 5
let fault_size = 5

(* Sets per Batch frame: the batch of the repository's own serve and
   store checks (scripts/serve_smoke.sh's default, scripts/store_smoke.sh's
   cold-start lap).  No controller traffic has been recorded, so as a
   model of real traffic this size is unverified.  At 128 a 30-second
   serve-store run still holds over 1,000 frames, enough for ten beyond
   its p99. *)
let batch = 128
let pool_frames = 128 (* 16,384 sets *)
let store_cache_limit = 256
let serve_setups = 15
let verify_setups = 5

(* (tag, n, k, fault sets covered) *)
let verify_targets = [ ("g3_5", 3, 5, 21_700); ("g25_4", 25, 4, 92_171) ]

(* The verify workload's frames are the work units of this instance
   (see [verify]). *)
let frame_target = "g25_4"

(* The traced run fails when the layers leave more than this share of
   the untraced end-to-end time unexplained (or explain more than all
   of it by this share).  On the development host the residuals stayed
   within 16 % either way, in one-second runs beside a busy loop too. *)
let residual_bound = 0.3

let end_to_end =
  [
    ("sets_per_s", "1/s");
    ("plans_per_s", "1/s");
    ("frame_p99_us", "us");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let verify_instance_metrics =
  [
    ("verify.symmetry_ms", "ms");
    ("verify.orbits_ms", "ms");
    ("verify.drain_ms", "ms");
    ("hamilton.search_ms", "ms");
    ("hamilton.searches", "count");
    ("hamilton.expansions", "count");
    ("verify.solver_calls", "count");
    ("verify.splices", "count");
    ("verify.splice_failures", "count");
    ("verify.plain_ms", "ms");
  ]

let per_instance tag names = List.map (fun (name, unit) -> (name ^ "." ^ tag, unit)) names

let serve_common =
  [
    ("daemon.ready_s", "s");
    ("server.service_us", "us");
    ("server.wire_us", "us");
    ("client.loop_us", "us");
    ("server.fast_path_us", "us");
    ("protocol.decode_ns", "ns");
    ("protocol.encode_ns", "ns");
    ("codec.frame_ns", "ns");
    ("engine.l1_hit_share", "ratio");
    ("engine.store_hit_share", "ratio");
    ("engine.full_solves", "count");
    ("reconfig.scratch_us", "us");
  ]

let serve_hot_only = [ ("engine.l1_hit_ns", "ns") ]

let serve_store_only =
  [
    ("engine.l2_solve_us", "us");
    ("auto.canonical_us", "us");
    ("auto.orbit_visited", "count");
    ("store.lookup_ns", "ns");
    ("pipeline.validate_ns", "ns");
    ("shard_cache.insert_ns", "ns");
    ("store.compile_s", "s");
    ("store.open_ms", "ms");
    ("store.bytes", "bytes");
    ("store.records", "count");
    (* the compile's group and orbit phases *)
    ("verify.symmetry_ms.g3_5", "ms");
    ("verify.orbits_ms.g3_5", "ms");
  ]

let verify_only =
  List.concat_map (fun (tag, _, _, _) -> per_instance tag verify_instance_metrics) verify_targets

let ladder_metrics =
  [
    ("ladder.e2e_us", "us");
    ("ladder.sum_us", "us");
    ("ladder.residual_share", "ratio");
    ("trace.overhead_share", "ratio");
  ]

let per_layer =
  List.sort_uniq compare (serve_common @ serve_hot_only @ serve_store_only @ verify_only)
  |> List.filter (fun m -> not (List.mem m ladder_metrics))
  |> fun l -> l @ ladder_metrics

(* The per-layer metrics a workload's traced run measures; the others
   are off its path and read 0. *)
let on_path = function
  | "serve-hot" -> serve_common @ serve_hot_only @ ladder_metrics
  | "serve-store" -> serve_common @ serve_store_only @ ladder_metrics
  | _ -> verify_only @ ladder_metrics

(* ------------------------------------------------------------------ *)
(* Result record                                                       *)
(* ------------------------------------------------------------------ *)

let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v
let attempted = ref 0
let failed = ref 0
let problems = ref []

let problem fmt =
  Printf.ksprintf (fun s -> problems := s :: !problems; pf "CHECK FAILED: %s\n%!" s) fmt

let check cond fmt =
  Printf.ksprintf (fun s -> if not cond then problem "%s" s) fmt

(* Print every metric of [table] by name with its unit, then the JSON
   result line.  A metric of [required] that was never measured is a
   failed check; the others are off this workload's path and read 0. *)
let finish table ~required =
  pf "\n";
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem values name) then problem "metric %s was not measured" name)
    required;
  let value name =
    match Hashtbl.find_opt values name with
    | Some v when Float.is_finite v -> v
    | Some _ -> problem "metric %s is not finite" name; 0.
    | None -> 0.
  in
  let shown = List.map (fun (name, unit) -> (name, unit, value name)) table in
  List.iter (fun (name, unit, v) -> pf "%-32s %18.6f %s\n" name v unit) shown;
  pf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = [] && !failed = 0)
    !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
          shown))

(* ------------------------------------------------------------------ *)
(* Request pool                                                        *)
(* ------------------------------------------------------------------ *)

type pool = {
  inst : Instance.t;
  masks : int array array;  (** every request, sorted, in stream order *)
  bitsets : Bitset.t array;
  payloads : string array;  (** one Batch request payload per frame *)
  frames : string array;  (** the same, framed for the wire *)
}

(* [pool_frames] Batch frames of [batch] uniformly drawn size-5 fault
   sets, all from [seed]. *)
let make_pool ~seed =
  let inst = Family.build ~n:serve_n ~k:serve_k in
  let order = Instance.order inst in
  let rng = Random.State.make [| seed |] in
  let perm = Array.init order Fun.id in
  let draw () =
    for i = 0 to fault_size - 1 do
      let j = i + Random.State.int rng (order - i) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let s = Array.sub perm 0 fault_size in
    Array.sort compare s;
    s
  in
  let masks = Array.init (pool_frames * batch) (fun _ -> draw ()) in
  let payloads =
    Array.init pool_frames (fun f ->
        Protocol.encode_request
          (Protocol.Batch
             {
               inst = 0;
               masks =
                 List.init batch (fun i -> Array.to_list masks.((f * batch) + i));
             }))
  in
  {
    inst;
    masks;
    bitsets = Array.map (fun m -> Bitset.of_list order (Array.to_list m)) masks;
    payloads;
    frames = Array.map Codec.frame payloads;
  }

(* ------------------------------------------------------------------ *)
(* Plan store compile (serve-store set-up)                             *)
(* ------------------------------------------------------------------ *)

type compile = { c_total_s : float; c_symmetry_s : float; c_orbits_s : float }

(* The orbit-compressed store gdp compile-plans writes, compiled in
   process: one plain-solver plan per automorphism orbit of fault sets
   up to size k. *)
let compile_store inst ~path =
  let t0 = Host.now_ns () in
  let g = Instance.symmetry inst in
  let t1 = Host.now_ns () in
  let k = inst.Instance.k in
  let reps = Auto.fault_orbits g ~max_size:k in
  let t2 = Host.now_ns () in
  let order = Instance.order inst in
  let ctx = Reconfig.make_ctx inst in
  let w =
    Plan_store.writer ~digest:(Certify.digest inst) ~model_id:0 ~orbit:true
      ~usize:order ~order ~max_size:k
  in
  let mask = Bitset.create order in
  Array.iter
    (fun { Auto.set; size } ->
      Bitset.clear mask;
      Array.iter (Bitset.add mask) set;
      Plan_store.add w ~set ~count:size (Reconfig.solve ~ctx inst ~faults:mask))
    reps;
  Plan_store.write w ~path;
  {
    c_total_s = Host.s_of_ns (Host.now_ns () - t0);
    c_symmetry_s = Host.s_of_ns (t1 - t0);
    c_orbits_s = Host.s_of_ns (t2 - t1);
  }

(* ------------------------------------------------------------------ *)
(* Serve workloads                                                     *)
(* ------------------------------------------------------------------ *)

let scratch_dir = ".perfbench"

let median_of f n = Host.median (List.init n (fun i -> f i))

(* Lockstep traffic: [rtt] holds every frame's round trip, in a buffer
   allocated once so the timed loop allocates nothing; a lap is a run
   of consecutive frames in it. *)
type lap = {
  first : int;  (** index of the lap's first frame in [rtt] *)
  count : int;  (** frames sent *)
  wall_ns : int;
  got : int;  (** outcomes received *)
  got_plans : int;  (** outcomes that are plans *)
  lap_failed : int;
}

(* Cycle the pool's frames until [seconds] pass, from frame [first]
   on. *)
let run_lap conn pool rtt ~first ~seconds =
  let frames = pool.frames in
  let nf = Array.length frames and cap = Array.length rtt in
  let n = ref first and i = ref 0 and got = ref 0 and got_plans = ref 0 in
  let lap_failed = ref 0 in
  let t0 = Host.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let now = ref t0 in
  while !now < deadline && !n < cap do
    let f0 = Host.now_ns () in
    let len = Wire.round_trip conn frames.(!i) in
    now := Host.now_ns ();
    rtt.(!n) <- !now - f0;
    Wire.walk conn len;
    got := !got + !Wire.outcomes;
    got_plans := !got_plans + !Wire.plans;
    (* An error response, a short batch or a non-plan outcome (every
       set of size <= k has a plan on a k-GD instance) is a failure. *)
    lap_failed := !lap_failed + (batch - !Wire.plans);
    incr n;
    i := if !i + 1 = nf then 0 else !i + 1
  done;
  {
    first;
    count = !n - first;
    wall_ns = !now - t0;
    got = !got;
    got_plans = !got_plans;
    lap_failed = !lap_failed;
  }

let mean_rtt_ns rtt laps =
  let sum = ref 0 and n = ref 0 in
  List.iter
    (fun l ->
      for i = l.first to l.first + l.count - 1 do
        sum := !sum + rtt.(i)
      done;
      n := !n + l.count)
    laps;
  float_of_int !sum /. float_of_int (max 1 !n)

(* Mean time from one frame's start to the next's, over [laps]. *)
let period_ns laps =
  let wall = List.fold_left (fun acc l -> acc + l.wall_ns) 0 laps in
  let count = List.fold_left (fun acc l -> acc + l.count) 0 laps in
  float_of_int wall /. float_of_int (max 1 count)

(* The nearest-rank p50 and p99 of the first [len] samples, pooled;
   the run prints both and how many samples lie beyond the p99. *)
let p50_p99 samples ~len =
  let a = Array.sub samples 0 len in
  Array.sort compare a;
  let p50 = float_of_int a.(Host.rank len 50.) and p99 = float_of_int a.(Host.rank len 99.) in
  pf "%d samples: p50 %.3f us, p99 %.3f us with %d beyond it\n" len (p50 /. 1e3) (p99 /. 1e3)
    (len - Host.rank len 99. - 1);
  p99

(* Untimed pass over the whole pool with full decoding: every served
   plan must be a valid pipeline for its own fault set. *)
let check_pool conn pool =
  Array.iteri
    (fun f frame ->
      let len = Wire.round_trip conn frame in
      let resp = Protocol.decode_response (Bytes.sub_string conn.Wire.buf 0 len) in
      attempted := !attempted + batch;
      match resp with
      | Protocol.Outcomes outs ->
        let good = ref 0 in
        List.iteri
          (fun i o ->
            if i < batch then
              match o with
              | Protocol.Plan nodes
                when Pipeline.is_valid pool.inst
                       ~faults:pool.bitsets.((f * batch) + i) nodes ->
                incr good
              | _ -> ())
          outs;
        failed := !failed + (batch - !good)
      | _ -> failed := !failed + batch)
    pool.frames

type counters = {
  l1_hits : int;
  l1_misses : int;
  store_hits : int;
  store_misses : int;
  full_solves : int;
  service_count : int;
  service_sum_ns : int;
}

let counters json =
  let service_count, service_sum_ns = Wire.service_hist json in
  {
    l1_hits = Wire.json_int json "engine.cache_hits";
    l1_misses = Wire.json_int json "engine.cache_misses";
    store_hits = Wire.json_int json "engine.store_hits";
    store_misses = Wire.json_int json "engine.store_misses";
    full_solves = Wire.json_int json "engine.full_solves";
    service_count;
    service_sum_ns;
  }

let combine op a b =
  {
    l1_hits = op a.l1_hits b.l1_hits;
    l1_misses = op a.l1_misses b.l1_misses;
    store_hits = op a.store_hits b.store_hits;
    store_misses = op a.store_misses b.store_misses;
    full_solves = op a.full_solves b.full_solves;
    service_count = op a.service_count b.service_count;
    service_sum_ns = op a.service_sum_ns b.service_sum_ns;
  }

let share a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* The daemon's own counters must show the workload hit its tier. *)
let check_tier ~store d =
  let l1 = share d.l1_hits d.l1_misses in
  let st = share d.store_hits d.store_misses in
  pf "daemon counters (timed phase): l1 hits %d misses %d (share %.4f), store hits %d misses %d (share %.4f), full solves %d\n"
    d.l1_hits d.l1_misses l1 d.store_hits d.store_misses st d.full_solves;
  check (d.full_solves = 0) "full solves in the timed phase: %d (expected 0)" d.full_solves;
  if store then begin
    check (st >= 0.9) "store hit share %.4f < 0.9" st;
    check (l1 <= 0.1) "L1 hit share %.4f > 0.1" l1
  end
  else check (l1 >= 0.99) "L1 hit share %.4f < 0.99" l1;
  set "engine.l1_hit_share" l1;
  set "engine.store_hit_share" st;
  set "engine.full_solves" (float_of_int d.full_solves)

(* Sum the rungs' costs per root operation and compare them with the
   untraced end-to-end time; a ladder that stops adding up fails the
   run. *)
let ladder ~root_ns ~traced_ns rungs =
  let sum = List.fold_left (fun acc r -> acc +. Spans.cost (Spans.find r)) 0. rungs in
  let residual = (root_ns -. sum) /. root_ns in
  set "ladder.e2e_us" (root_ns /. 1e3);
  set "ladder.sum_us" (sum /. 1e3);
  set "ladder.residual_share" residual;
  set "trace.overhead_share" ((traced_ns -. root_ns) /. root_ns);
  pf "\ncost ladder (per root operation; untraced end-to-end %.3f us, traced %.3f us)\n"
    (root_ns /. 1e3) (traced_ns /. 1e3);
  Spans.print_tree ~root_ns;
  pf "  rungs summed: %s\n  sum %.3f us, residual %.3f us (%.1f%% of the untraced end-to-end time, bound %.0f%%)\n"
    (String.concat " + " rungs) (sum /. 1e3) ((root_ns -. sum) /. 1e3)
    (100. *. residual) (100. *. residual_bound);
  check (Float.abs residual <= residual_bound)
    "ladder residual %.3f outside +-%.2f: the layers no longer add up to the end-to-end time"
    residual residual_bound

(* The daemon serves every Batch frame through its fast path
   (Server.serve_batch_fast): each mask's varints are decoded straight
   into a scratch bitset, solved, and the outcome appended to the
   response as it comes; Codec.output_frame then checksums the payload
   and writes it.  The replays below run that path, and each of its
   pieces, from the same public functions. *)
let decode_mask scratch payload pos =
  let n, pos = Codec.get_uint payload pos in
  Bitset.clear scratch;
  let pos = ref pos in
  for _ = 1 to n do
    let e, p = Codec.get_uint payload !pos in
    pos := p;
    Bitset.add scratch e
  done;
  !pos

let encode_outcome buf = function
  | Reconfig.Pipeline pl ->
    let nodes = pl.Pipeline.nodes in
    Buffer.add_char buf '\000';
    Codec.put_uint buf (List.length nodes);
    List.iter (Codec.put_uint buf) nodes
  | Reconfig.No_pipeline -> Buffer.add_char buf '\001'
  | Reconfig.Gave_up -> Buffer.add_char buf '\002'

(* Position of the first mask in a Batch payload, and the mask count. *)
let batch_header payload =
  let _inst, pos = Codec.get_uint payload 1 in
  let count, pos = Codec.get_uint payload pos in
  (count, pos)

let response_buffer count =
  let buf = Buffer.create ((count * 8) + 16) in
  Buffer.add_char buf 'B';
  Codec.put_uint buf count;
  buf

(* One frame through the whole fast path. *)
let fast_path e scratch payload =
  let count, pos = batch_header payload in
  let buf = response_buffer count in
  let pos = ref pos in
  for _ = 1 to count do
    pos := decode_mask scratch payload !pos;
    encode_outcome buf (Engine.solve e ~faults:scratch)
  done;
  Codec.adler32 (Buffer.contents buf)

(* The pieces alone: the request decode, and the response encode of
   [outcomes] frame by frame. *)
let decode_frame scratch payload =
  let count, pos = batch_header payload in
  let pos = ref pos in
  for _ = 1 to count do
    pos := decode_mask scratch payload !pos
  done

let encode_frames outcomes =
  Array.init pool_frames (fun f ->
      let buf = response_buffer batch in
      for i = f * batch to ((f + 1) * batch) - 1 do
        encode_outcome buf outcomes.(i)
      done;
      Buffer.contents buf)

(* A local engine set up like the daemon: warmed with every set of size
   <= 5 (serve-hot), or with the same store and L1 bound (serve-store). *)
let local_engine pool ~store ~store_path =
  if store then begin
    let e = Engine.create ~cache_limit:store_cache_limit pool.inst in
    (match Engine.attach_store e ~path:store_path with Ok () -> () | Error m -> failwith m);
    e
  end
  else begin
    let e = Engine.create pool.inst in
    Combinat.iter_subsets_up_to (Instance.order pool.inst) fault_size (fun buf len ->
        ignore (Engine.solve_list e ~faults:(Array.to_list (Array.sub buf 0 len))));
    e
  end

(* Replays of the run's own inputs through the pieces of the daemon's
   fast path, and the ladder they add up to.  The rungs are the
   client's turn and the wire, taken from the live run, and the whole
   fast path replayed in process (between the traced run's laps, see
   [serve]).  Its pieces, each replayed alone on an engine from
   [engine ()], hang under it; its self time is what running them
   interleaved adds.  What the ladder leaves is the part of the
   daemon's service window that no replay covers: the socket write,
   the server's metrics and, on the shared CPU, any part of the
   client's turn that runs before the write returns. *)
let serve_layers pool ~store ~store_path ~engine ~compiles ~untraced_period_ns ~period_ns
    ~mean_rtt_ns ~service_ns =
  let nreq = Array.length pool.masks and nframes = Array.length pool.frames in
  let fb = float_of_int batch in
  let scratch = Bitset.create (Instance.order pool.inst) in
  (* serve-store's path is stateful (L1 inserts and evictions), so its
     engine replay is one pass in stream order, as the daemon saw the
     stream. *)
  let min_s = if store then Some 0. else None in
  Spans.add "serve.frame" ~per_root:1. ~ops:1 ~dur_ns:period_ns;
  Spans.add "client.loop" ~parent:"serve.frame" ~per_root:1. ~ops:1
    ~dur_ns:(period_ns -. mean_rtt_ns);
  Spans.add "server.wire" ~parent:"serve.frame" ~per_root:1. ~ops:1
    ~dur_ns:(mean_rtt_ns -. service_ns);
  Spans.add "server.service" ~parent:"serve.frame" ~per_root:1. ~ops:1 ~dur_ns:service_ns;
  let parent = "server.fast_path" in
  Spans.measure "protocol.decode" ~parent ~per_root:fb ~items:nreq (fun () ->
      Array.iter (decode_frame scratch) pool.payloads);
  let e = engine () in
  let engine_span = if store then "engine.l2_solve" else "engine.l1_hit" in
  Spans.measure engine_span ~parent ~per_root:fb ~items:nreq ?min_s (fun () ->
      Array.iter (fun m -> ignore (Engine.solve e ~faults:m)) pool.bitsets);
  let outcomes = Array.map (fun m -> Engine.solve e ~faults:m) pool.bitsets in
  Spans.measure "protocol.encode" ~parent ~per_root:fb ~items:nreq (fun () ->
      ignore (encode_frames outcomes));
  let encoded = encode_frames outcomes in
  Spans.measure "codec.frame" ~parent ~per_root:1. ~items:nframes (fun () ->
      Array.iter (fun r -> ignore (Codec.adler32 r)) encoded);
  if store then begin
    (* The L2 tier's steps, each on the run's requests. *)
    let g = Instance.symmetry pool.inst in
    let parent = "engine.l2_solve" in
    let canon = Array.map (fun m -> Auto.canonical_with_transport g m) pool.masks in
    Spans.measure "auto.canonical" ~parent ~per_root:fb ~items:nreq ~min_s:0. (fun () ->
        Array.iter (fun m -> ignore (Auto.canonical_with_transport g m)) pool.masks);
    let visited =
      Array.fold_left (fun acc m -> acc + List.length (Auto.orbit_of_set g m)) 0 pool.masks
    in
    set "auto.orbit_visited" (float_of_int visited /. float_of_int nreq);
    let st =
      match Plan_store.open_path ~path:store_path with Ok st -> st | Error m -> failwith m
    in
    Spans.measure "store.lookup" ~parent ~per_root:fb ~items:nreq (fun () ->
        Array.iter (fun (key, _) -> ignore (Plan_store.lookup st key)) canon);
    let transported =
      Array.map
        (fun (key, perm) ->
          match (Plan_store.lookup st key, perm) with
          | Some (Reconfig.Pipeline p), Some perm -> List.map (fun v -> perm.(v)) p.Pipeline.nodes
          | Some (Reconfig.Pipeline p), None -> p.Pipeline.nodes
          | _ -> [])
        canon
    in
    Spans.measure "pipeline.validate" ~parent ~per_root:fb ~items:nreq (fun () ->
        Array.iteri
          (fun i nodes -> ignore (Pipeline.is_valid pool.inst ~faults:pool.bitsets.(i) nodes))
          transported);
    let cache = Shard_cache.create ~capacity:store_cache_limit () in
    Spans.measure "shard_cache.insert" ~parent ~per_root:fb ~items:nreq (fun () ->
        Array.iter (fun m -> Shard_cache.add cache m ()) pool.bitsets);
    set "store.records" (float_of_int (Plan_store.records st));
    set "store.bytes" (float_of_int (Unix.stat store_path).Unix.st_size);
    Plan_store.close st;
    set "store.open_ms"
      (median_of
         (fun _ ->
           let t0 = Host.now_ns () in
           (match Plan_store.open_path ~path:store_path with
           | Ok st -> Plan_store.close st
           | Error m -> failwith m);
           Host.s_of_ns (Host.now_ns () - t0) *. 1e3)
         5);
    let med f = Host.median (List.map f compiles) in
    set "store.compile_s" (med (fun c -> c.c_total_s));
    set "verify.symmetry_ms.g3_5" (med (fun c -> c.c_symmetry_s) *. 1e3);
    set "verify.orbits_ms.g3_5" (med (fun c -> c.c_orbits_s) *. 1e3)
  end;
  (* Reference row: the same requests solved from scratch. *)
  let scratch_engine = Engine.create pool.inst in
  let t0 = Host.now_ns () in
  Array.iter (fun m -> ignore (Engine.solve ~cache:false scratch_engine ~faults:m)) pool.bitsets;
  set "reconfig.scratch_us" (Host.s_of_ns (Host.now_ns () - t0) *. 1e6 /. float_of_int nreq);
  let ns name = Spans.per_op_ns (Spans.find name) in
  set "server.fast_path_us" (ns "server.fast_path" /. 1e3);
  set "protocol.decode_ns" (ns "protocol.decode");
  set "protocol.encode_ns" (ns "protocol.encode");
  set "codec.frame_ns" (ns "codec.frame");
  if store then begin
    set "engine.l2_solve_us" (ns "engine.l2_solve" /. 1e3);
    set "auto.canonical_us" (ns "auto.canonical" /. 1e3);
    set "store.lookup_ns" (ns "store.lookup");
    set "pipeline.validate_ns" (ns "pipeline.validate");
    set "shard_cache.insert_ns" (ns "shard_cache.insert")
  end
  else set "engine.l1_hit_ns" (ns "engine.l1_hit");
  ladder ~root_ns:untraced_period_ns ~traced_ns:period_ns
    [ "client.loop"; "server.wire"; "server.fast_path" ]

let serve ~gdpd ~store ~seed ~seconds ~trace =
  let pool = make_pool ~seed in
  (try Unix.mkdir scratch_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = string_of_int (Unix.getpid ()) in
  let socket = Filename.concat scratch_dir (tag ^ ".sock") in
  let store_path = Filename.concat scratch_dir (tag ^ "-g3_5.plans") in
  let spare_socket = Filename.concat scratch_dir (tag ^ "-spare.sock") in
  let spare_store = Filename.concat scratch_dir (tag ^ "-spare.plans") in
  Fun.protect ~finally:(fun () ->
      Daemon.stop_all ();
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ store_path; spare_store ];
      try Unix.rmdir scratch_dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* One set-up: (serve-store) compile the store, then spawn a daemon
     and wait for its ready line. *)
  let readies = ref [] and setups_s = ref [] and compiles = ref [] in
  let setup ~socket ~store_path =
    let t0 = Host.now_ns () in
    let args =
      [ "--instances"; Printf.sprintf "%d:%d" serve_n serve_k; "--workers"; "1" ]
      @
      if store then begin
        compiles := compile_store pool.inst ~path:store_path :: !compiles;
        [ "--store"; store_path; "--cache-limit"; string_of_int store_cache_limit ]
      end
      else [ "--warm"; string_of_int fault_size ]
    in
    let d, ready = Daemon.start ~gdpd ~socket args in
    setups_s := Host.s_of_ns (Host.now_ns () - t0) :: !setups_s;
    readies := ready :: !readies;
    d
  in
  (* The other set-ups start a spare daemon and stop it again.  The
     end-to-end run spreads them between its laps, so that the set-up
     median, like the rates, spans the whole run rather than its first
     second or two; the traced run makes them all here. *)
  let spare_setup () = Daemon.stop (setup ~socket:spare_socket ~store_path:spare_store) in
  let d = setup ~socket ~store_path in
  if trace then
    for _ = 2 to serve_setups do
      spare_setup ()
    done;
  let conn = Wire.connect socket in
  Fun.protect ~finally:(fun () -> Wire.close conn) @@ fun () ->
  (match Wire.request conn Protocol.Hello with
  | Protocol.Welcome { instances = [ { Protocol.i_n; i_k; _ } ]; _ }
    when i_n = serve_n && i_k = serve_k -> ()
  | _ -> problem "unexpected Hello reply");
  let rtt = Array.make (max 4096 (int_of_float (seconds *. 20_000.))) 0 in
  let next = ref 0 in
  let lap ~seconds =
    let l = run_lap conn pool rtt ~first:!next ~seconds in
    next := !next + l.count;
    attempted := !attempted + (l.count * batch);
    failed := !failed + l.lap_failed;
    l
  in
  (* Daemon counter deltas over the laps run through [bracket]. *)
  let timed_counters = ref None in
  let bracket : 'a. (unit -> 'a) -> 'a =
   fun f ->
    let a = counters (Wire.metrics conn) in
    let l = f () in
    let d = combine ( - ) (counters (Wire.metrics conn)) a in
    timed_counters :=
      Some (match !timed_counters with None -> d | Some w -> combine ( + ) w d);
    l
  in
  (* A local engine set up like the daemon: serve-hot's is warmed once
     and shared, serve-store's is fresh each time. *)
  let engine =
    if store then fun () -> local_engine pool ~store ~store_path
    else begin
      let hot = lazy (local_engine pool ~store ~store_path) in
      fun () -> Lazy.force hot
    end
  in
  (* The traced run is four rounds of an untraced lap (the end-to-end
     reference), a lap bracketed by daemon counter snapshots (the
     daemon-side layers) and the daemon's fast path replayed in process
     on the pool (the ladder's main rung); interleaving them keeps host
     drift out of the comparison.  serve-store's path is stateful (L1
     inserts and evictions), so each of its replays is one pass in
     stream order on a fresh engine, as the daemon saw the stream. *)
  let untraced, traced =
    if trace then begin
      let slice = seconds /. 12. in
      let scratch = Bitset.create (Instance.order pool.inst) in
      List.split
        (List.init 4 (fun _ ->
             let u = lap ~seconds:slice in
             let t = bracket (fun () -> lap ~seconds:slice) in
             let e = engine () and min_s = if store then 0. else slice in
             (* On a worker domain through a reader handle, as gdpd
                --workers 1 serves, while this domain waits as gdpd's
                accepting domain does. *)
             Domain.join
               (Domain.spawn (fun () ->
                    let r = Engine.reader e in
                    Spans.measure "server.fast_path" ~parent:"server.service" ~per_root:1.
                      ~items:pool_frames ~min_s (fun () ->
                        Array.iter (fun p -> ignore (fast_path r scratch p)) pool.payloads)));
             (u, t)))
    end
    else begin
      let laps =
        bracket (fun () ->
            List.init (serve_setups - 1) (fun _ ->
                let l = lap ~seconds:(seconds /. float_of_int (serve_setups - 1)) in
                spare_setup ();
                l))
      in
      let total f = List.fold_left (fun acc l -> acc + f l) 0 laps in
      let wall_s = Host.s_of_ns (total (fun l -> l.wall_ns)) in
      set "sets_per_s" (float_of_int (total (fun l -> l.got)) /. wall_s);
      set "plans_per_s" (float_of_int (total (fun l -> l.got_plans)) /. wall_s);
      pf "timed phase: %d frames of %d sets in %.3f s; frame round trips, " !next batch wall_s;
      set "frame_p99_us" (p50_p99 rtt ~len:!next /. 1e3);
      ([], [])
    end
  in
  set "setup_s" (Host.median !setups_s);
  set "daemon.ready_s" (Host.median !readies);
  let tier = Option.get !timed_counters in
  check_tier ~store tier;
  check_pool conn pool;
  set "peak_rss_mb" (Daemon.peak_rss_mb d);
  Daemon.stop d;
  if trace then begin
    let mean_rtt_ns = mean_rtt_ns rtt traced in
    let service_ns = float_of_int tier.service_sum_ns /. float_of_int (max 1 tier.service_count) in
    let period_traced = period_ns traced in
    set "server.service_us" (service_ns /. 1e3);
    set "server.wire_us" ((mean_rtt_ns -. service_ns) /. 1e3);
    set "client.loop_us" ((period_traced -. mean_rtt_ns) /. 1e3);
    serve_layers pool ~store ~store_path ~engine ~compiles:!compiles
      ~untraced_period_ns:(period_ns untraced) ~period_ns:period_traced ~mean_rtt_ns
      ~service_ns
  end

(* ------------------------------------------------------------------ *)
(* Verify workload                                                     *)
(* ------------------------------------------------------------------ *)

type target = { tag : string; inst : Instance.t; expected : int }

let build_targets () =
  List.map (fun (tag, n, k, expected) -> { tag; inst = Family.build ~n ~k; expected }) verify_targets

let check_report t (r : Verify.report) =
  let ok = r.Verify.failures = [] && r.gave_up = 0 && r.fault_sets_checked = t.expected in
  attempted := !attempted + 1;
  if not ok then begin
    incr failed;
    problem "verify %s: %d sets checked (expected %d), %d failures, %d gave up" t.tag
      r.fault_sets_checked t.expected (List.length r.failures) r.gave_up
  end

(* One operation on one instance through the public entry point: the
   group, then orbit-reduced verification on this domain. *)
let verify_public t =
  Engine.Parallel.verify_exhaustive ~domains:1 ~symmetry:(Instance.symmetry t.inst) t.inst

(* The same verification with each work unit's drain timed into
   [samples] from [!n] on.  A unit is what the checkpointing and
   multi-process verifiers write one result frame for; the units are
   drained in order on this domain, as Parallel.run_task's one-domain
   schedule does, and the report must equal the public entry point's. *)
let verify_units t ~samples ~n =
  let task = Task.exhaustive ~symmetry:(Instance.symmetry t.inst) t.inst in
  let process = Task.processor task in
  let found = ref [] in
  let record ~rank f = found := (rank, f) :: !found in
  let cutoff () = max_int in
  for u = 0 to Task.nunits task - 1 do
    let t0 = Host.now_ns () in
    process ~record ~cutoff u;
    if !n < Array.length samples then begin
      samples.(!n) <- Host.now_ns () - t0;
      incr n
    end
  done;
  Task.merge task ~max_failures:5 [ !found ]

(* Each verification split at its public seams — group, orbit task,
   one-domain drain — with the program's own Hamilton and Verify
   counters read around the drain. *)
let verify_layers targets ~seconds =
  let untraced = ref [] and traced = ref [] in
  let per = Hashtbl.create 16 in
  let note key v =
    Hashtbl.replace per key (v :: Option.value ~default:[] (Hashtbl.find_opt per key))
  in
  let counted =
    [ "hamilton.searches"; "hamilton.expansions"; "verify.solver_calls"; "verify.splices";
      "verify.splice_failures" ]
  in
  (* Untraced operations (the public entry point) and traced ones (the
     same calls it makes, timed one by one) alternate, so host drift
     lands on both sides of the comparison. *)
  let deadline = Host.now_ns () + int_of_float (seconds *. 1e9) in
  while List.length !traced < 3 || Host.now_ns () < deadline do
    let o0 = Host.now_ns () in
    List.iter (fun t -> check_report t (verify_public t)) targets;
    untraced := float_of_int (Host.now_ns () - o0) :: !untraced;
    let o0 = Host.now_ns () in
    List.iter
      (fun t ->
        let a = Host.now_ns () in
        let g = Instance.symmetry t.inst in
        let b = Host.now_ns () in
        let task = Task.exhaustive ~symmetry:g t.inst in
        let c = Host.now_ns () in
        let before = Metrics.snapshot () in
        let d = Host.now_ns () in
        let r = Engine.Parallel.run_task ~domains:1 task in
        let e = Host.now_ns () in
        let after = Metrics.snapshot () in
        check_report t r;
        let search_ns =
          match (Metrics.find before "hamilton.search_ns", Metrics.find after "hamilton.search_ns") with
          | Some (Metrics.Histogram h0), Some (Metrics.Histogram h1) -> h1.hsum - h0.hsum
          | _ -> 0
        in
        note ("verify.symmetry." ^ t.tag) (float_of_int (b - a));
        note ("verify.orbits." ^ t.tag) (float_of_int (c - b));
        note ("verify.drain." ^ t.tag) (float_of_int (e - d));
        note ("hamilton.search." ^ t.tag) (float_of_int search_ns);
        List.iter
          (fun m ->
            note (m ^ "." ^ t.tag)
              (float_of_int (Metrics.counter_in after m - Metrics.counter_in before m)))
          counted)
      targets;
    traced := float_of_int (Host.now_ns () - o0) :: !traced
  done;
  let med key = Host.median (Hashtbl.find per key) in
  Spans.add "verify.op" ~per_root:1. ~ops:1 ~dur_ns:(Host.median !traced);
  List.iter
    (fun t ->
      let span ?(parent = "verify.op") name =
        Spans.add (name ^ "." ^ t.tag) ~parent ~per_root:1. ~ops:1
          ~dur_ns:(med (name ^ "." ^ t.tag))
      in
      span "verify.symmetry";
      span "verify.orbits";
      span "verify.drain";
      span ~parent:("verify.drain." ^ t.tag) "hamilton.search";
      List.iter
        (fun (metric, key) -> set (metric ^ "." ^ t.tag) (med (key ^ "." ^ t.tag) /. 1e6))
        [ ("verify.symmetry_ms", "verify.symmetry"); ("verify.orbits_ms", "verify.orbits");
          ("verify.drain_ms", "verify.drain"); ("hamilton.search_ms", "hamilton.search") ];
      List.iter
        (fun m ->
          let key = m ^ "." ^ t.tag in
          match Hashtbl.find per key with
          | v :: rest ->
            if List.exists (fun w -> w <> v) rest then
              problem "%s differs between identical verifications" key;
            set key v
          | [] -> ())
        counted;
      (* Reference row: the same verification without orbit reduction. *)
      set ("verify.plain_ms." ^ t.tag)
        (median_of
           (fun _ ->
             let a = Host.now_ns () in
             let r = Engine.Parallel.verify_exhaustive ~domains:1 t.inst in
             let b = Host.now_ns () in
             check_report t r;
             Host.s_of_ns (b - a) *. 1e3)
           3))
    targets;
  let rungs =
    List.concat_map
      (fun t ->
        List.map (fun n -> n ^ "." ^ t.tag) [ "verify.symmetry"; "verify.orbits"; "verify.drain" ])
      targets
  in
  ladder ~root_ns:(Host.median !untraced) ~traced_ns:(Host.median !traced) rungs

let verify ~seconds ~trace =
  let reference = Hashtbl.create 2 and setups = ref [] in
  (* One set-up: build both instances and run one untimed operation
     through the public entry point, whose reports the unit-timed
     verifications must equal. *)
  let setup () =
    let t0 = Host.now_ns () in
    List.iter
      (fun t ->
        let r = verify_public t in
        check_report t r;
        Hashtbl.replace reference t.tag r)
      (build_targets ());
    let dur = Host.now_ns () - t0 in
    setups := Host.s_of_ns dur :: !setups;
    dur
  in
  ignore (setup ());
  let targets = build_targets () in
  if trace then begin
    for _ = 2 to verify_setups do
      ignore (setup ())
    done;
    verify_layers targets ~seconds
  end
  else begin
    (* Timed phase: operations through the public entry point (the
       rates) alternate with one unit-timed verification of
       [frame_target] (the frame latencies), until [seconds] pass. *)
    let frames_of = List.find (fun t -> t.tag = frame_target) targets in
    let samples = Array.make (max 100_000 (int_of_float (seconds *. 4000.))) 0 in
    let nsamples = ref 0 and ops = ref [] in
    (* The other set-ups are spread evenly over the timed phase, which
       is extended by the time they take; see [serve]. *)
    let start = Host.now_ns () and paused = ref 0 in
    let elapsed_s () = Host.s_of_ns (Host.now_ns () - start - !paused) in
    while !ops = [] || elapsed_s () < seconds do
      let o0 = Host.now_ns () in
      let reports = List.map (fun t -> (t, verify_public t)) targets in
      let wall_ns = Host.now_ns () - o0 in
      let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 reports in
      ops :=
        ( sum (fun (r : Verify.report) -> r.fault_sets_checked),
          sum (fun (r : Verify.report) -> r.solver_calls),
          wall_ns )
        :: !ops;
      List.iter (fun (t, r) -> check_report t r) reports;
      let r = verify_units frames_of ~samples ~n:nsamples in
      check_report frames_of r;
      if r <> Hashtbl.find reference frames_of.tag then begin
        incr failed;
        problem "verify %s: unit-drain report differs from Parallel.verify_exhaustive"
          frames_of.tag
      end;
      let done_ = List.length !setups in
      if done_ < verify_setups
         && elapsed_s () >= seconds *. float_of_int done_ /. float_of_int verify_setups
      then paused := !paused + setup ()
    done;
    while List.length !setups < verify_setups do
      ignore (setup ())
    done;
    let total f = float_of_int (List.fold_left (fun acc op -> acc + f op) 0 !ops) in
    let wall_s = Host.s_of_ns (int_of_float (total (fun (_, _, w) -> w))) in
    set "sets_per_s" (total (fun (s, _, _) -> s) /. wall_s);
    set "plans_per_s" (total (fun (_, c, _) -> c) /. wall_s);
    pf "timed phase: %d operations in %.3f s; %s unit drains, " (List.length !ops) wall_s
      frame_target;
    set "frame_p99_us" (p50_p99 samples ~len:!nsamples /. 1e3)
  end;
  set "setup_s" (Host.median !setups);
  set "peak_rss_mb" (Host.peak_rss_mb "self")

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workloads = [ "serve-hot"; "serve-store"; "verify" ]

let run ~gdpd ~workload ~seed ~seconds ~trace =
  let nproc = Host.nproc () and domains = Domain.recommended_domain_count () in
  (* Pin this process, and the daemon it spawns, to one CPU.  A
     lockstep client and daemon never run at the same time, so a shared
     CPU costs no throughput; what it removes is a cross-CPU wake-up per
     round trip, which on a virtual machine with a busy neighbour costs
     anywhere from microseconds to milliseconds and made unpinned runs
     differ threefold. *)
  let cpu = List.hd (Host.cpus ()) in
  Host.pin_cpu cpu;
  pf "# host nproc=%d recommended_domain_count=%d ocaml=%s commit=%s pinned_cpu=%d\n" nproc
    domains Sys.ocaml_version (Host.commit ()) cpu;
  pf "# run workload=%s seed=%d seconds=%g trace=%d client_threads=1 connections=%d\n%!"
    workload seed seconds (Bool.to_int trace)
    (if workload = "verify" then 0 else 1);
  (match workload with
  | "serve-hot" -> serve ~gdpd ~store:false ~seed ~seconds ~trace
  | "serve-store" -> serve ~gdpd ~store:true ~seed ~seconds ~trace
  | "verify" -> verify ~seconds ~trace
  | w -> invalid_arg ("unknown workload " ^ w));
  if trace then finish per_layer ~required:(on_path workload)
  else finish end_to_end ~required:end_to_end

(* The value of [name] in a result line, if it is there with [unit]. *)
let result_metric line (name, unit) =
  match Wire.after line (Printf.sprintf "%S: {\"value\": " name) with
  | None -> None
  | Some i -> (
    match
      Scanf.sscanf (String.sub line i (String.length line - i)) "%f, \"unit\": %S}"
        (fun v u -> (v, u))
    with
    | v, u when u = unit -> Some v
    | _ -> None
    | exception _ -> None)

(* Smoke mode: a short run of every workload, untraced and traced, as
   separate processes of this executable (the way the benchmark is
   driven).  Each must exit 0 with a correct, failure-free result line
   naming every metric with its unit, and the daemon counters must show
   each serve workload on its tier. *)
let smoke ~gdpd =
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> ok := false; pf "smoke FAILED: %s\n%!" s) fmt in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let args =
            [| Sys.executable_name; "--gdpd"; gdpd; "--workload"; workload; "--seed"; "1";
               "--seconds"; "1"; "--trace"; (if trace then "1" else "0") |]
          in
          let ic = Unix.open_process_args_in Sys.executable_name args in
          let rec lines acc =
            match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
          in
          let out = lines [] in
          let status = Unix.close_process_in ic in
          let what = Printf.sprintf "%s trace=%b" workload trace in
          match (status, out) with
          | Unix.WEXITED 0, last :: _ ->
            let has s = Wire.after last s <> None in
            if not (has "\"correct\": true" && has "\"failed\": 0,") then
              fail "%s: result not correct or has failures: %s" what last;
            let table = if trace then per_layer else end_to_end in
            List.iter
              (fun (name, unit) ->
                if result_metric last (name, unit) = None then
                  fail "%s: metric %s [%s] missing" what name unit)
              table;
            let value name =
              Option.value ~default:nan (result_metric last (List.find (fun (n, _) -> n = name) table))
            in
            if trace && workload = "serve-hot" then begin
              if not (value "engine.l1_hit_share" >= 0.99) then fail "%s: L1 hit share below 0.99" what;
              if value "engine.full_solves" <> 0. then fail "%s: full solves" what
            end;
            if trace && workload = "serve-store" then begin
              if not (value "engine.store_hit_share" >= 0.9) then fail "%s: store hit share below 0.9" what;
              if value "engine.full_solves" <> 0. then fail "%s: full solves" what
            end;
            pf "smoke %-24s ok\n%!" what
          | _ -> fail "%s: exited abnormally" what)
        [ false; true ])
    workloads;
  if not !ok then exit 1

let () =
  let gdpd = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and smoke_mode = ref false in
  Arg.parse
    [
      ("--gdpd", Arg.Set_string gdpd, "PATH gdpd executable");
      ("--workload", Arg.Set_string workload, "W serve-hot | serve-store | verify");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--smoke", Arg.Set smoke_mode, " short run of every workload, with checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --gdpd PATH (--workload W --seed N --seconds S --trace 0|1 | --smoke)";
  if !gdpd = "" then (prerr_endline "bench: --gdpd is required"; exit 2);
  if !smoke_mode then smoke ~gdpd:!gdpd
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end
  else
    try run ~gdpd:!gdpd ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with e ->
      Daemon.stop_all ();
      prerr_endline ("bench: " ^ Printexc.to_string e);
      exit 1
