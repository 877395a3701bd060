module Bitset = Gdpn_graph.Bitset
module Auto = Gdpn_graph.Auto
module Metrics = Gdpn_obs.Metrics
module Span = Gdpn_obs.Span
module Mclock = Gdpn_obs.Mclock
open Gdpn_core

(* Observability instruments (process-wide, see Gdpn_obs.Metrics).
   The cache-hit path deliberately stays clock-free: a hit is a hashtable
   probe measured in nanoseconds (perfbench's [engine.l1_hit_ns]), and
   even one [Mclock.now_ns] pair would dominate it.  Only misses get a
   latency sample. *)
let m_cache_hits = Metrics.counter "engine.cache_hits"
let m_cache_misses = Metrics.counter "engine.cache_misses"
let m_splices = Metrics.counter "engine.splices"
let m_full_solves = Metrics.counter "engine.full_solves"
let m_steals = Metrics.counter "engine.parallel_steals"

(* The L2 plan-store tier (Plan_store): hits served out of the mmap'd
   warehouse (transports = hits that needed an automorphism
   relabelling), misses falling through to splice/solve.  The gauge
   tracks the bytes currently mapped — 0 when no store is attached. *)
let m_store_hits = Metrics.counter "engine.store_hits"
let m_store_misses = Metrics.counter "engine.store_misses"
let m_store_transports = Metrics.counter "engine.store_transports"
let g_store_mmap_bytes = Metrics.gauge "engine.store_mmap_bytes"
let h_solve_miss = Metrics.histogram "engine.solve_miss_ns"
let h_shard = Metrics.histogram "engine.parallel_shard_ns"

(* Out-of-core verification: units skipped on resume because the
   checkpoint already held their result (the checkpointed-units twin
   lives in Checkpoint, where the append happens). *)
let m_units_resumed = Metrics.counter "verify.units_resumed"

(* Plan cache keyed on the masks themselves: lookups hash the caller's
   mask in place, so cache hits allocate nothing (the old string-key
   scheme paid a [Bitset.to_key] allocation per probe).  Since PR 9 the
   table is a domain-safe sharded cache (Shard_cache): lock-free reads,
   per-shard writer locks, bounded size with FIFO eviction — the gdpd
   daemon's worker domains hit one shared cache in parallel. *)

(* ------------------------------------------------------------------ *)
(* Engine: per-instance solver state                                   *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable lookups : int;
  mutable cache_hits : int;
  mutable splices : int;
  mutable full_solves : int;
}

let fresh_stats () =
  { lookups = 0; cache_hits = 0; splices = 0; full_solves = 0 }

(* An attached L2 plan store, plus the transport group for its
   orbit-compressed keys ([None] for flat stores — their lookups need no
   canonicalization). *)
type store_state = {
  st_store : Plan_store.t;
  st_group : Auto.group option;
}

(* The caches are the only engine state shared between domain handles
   (see [reader]): the node model's table plus one table per other fault
   model, created on first use (an eager table costs megabytes at the
   default bound).  The node table is a direct field, so a node L1 hit
   takes no lock and no registry lookup.  Masks from different models
   never meet in one table, so the effective cache key is
   [(model id, mask)].  The table registry is mutex-guarded; the tables
   themselves are Shard_cache values, safe for lock-free concurrent
   probes. *)
type shared = {
  s_cache : Reconfig.outcome Shard_cache.t;
  s_model_caches : (int, Reconfig.outcome Shard_cache.t) Hashtbl.t;
  mutable s_store : store_state option;
  s_lock : Mutex.t;  (* guards [s_model_caches] and [s_store] writes *)
}

type t = {
  inst : Instance.t;
  node : Fault_model.t;  (** built once, shared with every reader *)
  budget : int;
  shared : shared;
  cache_limit : int;
  stats : stats;
  scratch : (int, Bitset.t) Hashtbl.t;
      (** per-handle, per-model predecessor scratch for the splice probe *)
}

let default_budget = 2_000_000
let default_cache_limit = 1 lsl 16

let create ?(budget = default_budget) ?(cache_limit = default_cache_limit)
    inst =
  {
    inst;
    node = Fault_model.node inst;
    budget;
    shared =
      {
        s_cache = Shard_cache.create ~capacity:cache_limit ();
        s_model_caches = Hashtbl.create 4;
        s_store = None;
        s_lock = Mutex.create ();
      };
    cache_limit;
    stats = fresh_stats ();
    scratch = Hashtbl.create 4;
  }

(* A domain-private handle on the same instance and the same shared plan
   caches: fresh scratch and stats (the parts an Engine.t cannot share
   across domains).  The daemon gives each worker domain one reader per
   fleet engine. *)
let reader t = { t with stats = fresh_stats (); scratch = Hashtbl.create 4 }

let instance t = t.inst
let budget t = t.budget
let stats t = t.stats
let cache_size t = Shard_cache.length t.shared.s_cache
let cache_capacity t = Shard_cache.capacity t.shared.s_cache
let cache_shard_stats t = Shard_cache.shard_stats t.shared.s_cache

let fold_caches t f acc =
  Mutex.lock t.shared.s_lock;
  let acc =
    Hashtbl.fold (fun _ c acc -> f acc c) t.shared.s_model_caches
      (f acc t.shared.s_cache)
  in
  Mutex.unlock t.shared.s_lock;
  acc

let cache_total t = fold_caches t (fun acc c -> acc + Shard_cache.length c) 0
let cache_evictions t = fold_caches t (fun acc c -> acc + Shard_cache.evictions c) 0

(* Evict (oldest-first, per shard) until each table holds at most [keep]
   entries — the chaos harness's mid-storm eviction event.  Unlike
   [crash_restart] the removals go through the eviction path and count
   in [engine.cache_evictions]. *)
let cache_trim t ~keep =
  fold_caches t (fun () c -> Shard_cache.trim c ~keep) ()

let clear_caches t = fold_caches t (fun () c -> Shard_cache.clear c) ()

let reset t =
  clear_caches t;
  t.stats.lookups <- 0;
  t.stats.cache_hits <- 0;
  t.stats.splices <- 0;
  t.stats.full_solves <- 0

(* A process crash loses exactly the in-memory plan caches — nothing
   else: the cumulative stats model external monitoring, which survives a
   restart.  The chaos harness (Gdpn_faultsim.Scenario) injects this to
   check that plan-cache coherence holds across cold restarts while the
   caches rebuild. *)
let m_crash_restarts = Metrics.counter "engine.crash_restarts"

let crash_restart t =
  clear_caches t;
  Metrics.incr m_crash_restarts

(* ------------------------------------------------------------------ *)
(* L2 plan store: precompiled warehouse under the RAM cache             *)
(* ------------------------------------------------------------------ *)

let attach_store t ~path =
  match Plan_store.open_path ~path with
  | Error _ as e -> e
  | Ok store ->
    if Plan_store.digest store <> Certify.digest t.inst then begin
      Plan_store.close store;
      Error (path ^ ": store was compiled for a different instance")
    end
    else if Plan_store.orbit_compressed store && Plan_store.model_id store <> 0
    then begin
      (* The compiler only orbit-compresses the node model: transport
         needs node permutations, which an induced universe action has
         already forgotten.  Reject rather than risk wrong lookups. *)
      Plan_store.close store;
      Error (path ^ ": orbit-compressed stores cover only the node model")
    end
    else begin
      let group =
        if Plan_store.orbit_compressed store then begin
          let g = Instance.symmetry t.inst in
          if Auto.is_trivial g then None else Some g
        end
        else None
      in
      Mutex.lock t.shared.s_lock;
      t.shared.s_store <- Some { st_store = store; st_group = group };
      Mutex.unlock t.shared.s_lock;
      Metrics.set g_store_mmap_bytes (Plan_store.mmap_bytes store);
      Ok ()
    end

let detach_store t =
  Mutex.lock t.shared.s_lock;
  (match t.shared.s_store with
  | Some st -> Plan_store.close st.st_store
  | None -> ());
  t.shared.s_store <- None;
  Mutex.unlock t.shared.s_lock;
  Metrics.set g_store_mmap_bytes 0

let plan_store t = Option.map (fun st -> st.st_store) t.shared.s_store

let faults_array faults =
  let set = Array.make (Bitset.cardinal faults) 0 in
  let i = ref 0 in
  Bitset.iter
    (fun v ->
      set.(!i) <- v;
      incr i)
    faults;
  set

(* Probe the attached store for a fault set of [model]: canonicalize
   (orbit stores, which cover only the node model — see [attach_store]),
   look up, transport the stored plan back through the automorphism,
   revalidate.  Anything suspect — a failed record checksum, a decoded
   [Gave_up] (the compiler never writes one), a plan that does not
   validate for the queried faults — reads as a miss, so a degraded or
   tampered store can cost time but never correctness.  Stores for other
   fault models are skipped silently (they do not cover this universe,
   so it is not a miss). *)
let store_probe t model ~faults =
  match t.shared.s_store with
  | None -> None
  | Some { st_store = store; st_group } ->
    if Plan_store.model_id store <> Fault_model.id model then None
    else if Bitset.cardinal faults > Plan_store.max_size store then begin
      Metrics.incr m_store_misses;
      None
    end
    else begin
      let set = faults_array faults in
      let key, perm =
        match st_group with
        | None -> (set, None)
        | Some g -> Auto.canonical_with_transport g set
      in
      let hit =
        match Plan_store.lookup store key with
        | None | Some Reconfig.Gave_up -> None
        | Some Reconfig.No_pipeline ->
          (* Solvability is orbit-invariant; nothing to transport. *)
          Some Reconfig.No_pipeline
        | Some (Reconfig.Pipeline p) -> (
          let nodes =
            match perm with
            | None -> p.Pipeline.nodes
            | Some perm -> List.map (fun v -> perm.(v)) p.Pipeline.nodes
          in
          match Fault_model.validate model ~faults nodes with
          | Ok p ->
            if perm <> None then Metrics.incr m_store_transports;
            Some (Reconfig.Pipeline p)
          | Error _ -> None)
      in
      (match hit with
      | Some _ -> Metrics.incr m_store_hits
      | None -> Metrics.incr m_store_misses);
      hit
    end

let require_same_instance t model name =
  if not (Fault_model.instance model == t.inst) then
    invalid_arg (name ^ ": model built over a different instance")

(* The plan table for [model]: the node table directly, any other
   model's from the registry (created on first use). *)
let table t model =
  if Fault_model.is_node model then t.shared.s_cache
  else begin
    let id = Fault_model.id model in
    Mutex.lock t.shared.s_lock;
    let tbl =
      match Hashtbl.find_opt t.shared.s_model_caches id with
      | Some c -> c
      | None ->
        let c = Shard_cache.create ~capacity:t.cache_limit () in
        Hashtbl.add t.shared.s_model_caches id c;
        c
    in
    Mutex.unlock t.shared.s_lock;
    tbl
  end

let scratch t model =
  let id = Fault_model.id model in
  match Hashtbl.find_opt t.scratch id with
  | Some s -> s
  | None ->
    let s = Bitset.create (Fault_model.size model) in
    Hashtbl.add t.scratch id s;
    s

let full_solve t model ~faults =
  t.stats.full_solves <- t.stats.full_solves + 1;
  Metrics.incr m_full_solves;
  Fault_model.solve ~budget:t.budget model ~faults

(* Cheap local repair first, global re-solve second (the paper's §4
   reconfiguration discussion): look for a cached plan of some predecessor
   mask [faults \ {e}] and repair it around element [e] with the model's
   local rule (node patch, or revalidate-unchanged for link-like
   elements), without searching. *)
let splice_from_cache t tbl model ~faults =
  let scratch = scratch t model in
  let exception Found of Reconfig.outcome in
  try
    Bitset.iter
      (fun e ->
        Bitset.blit ~src:faults ~dst:scratch;
        Bitset.remove scratch e;
        match Shard_cache.find_opt tbl scratch with
        | Some (Reconfig.Pipeline current) -> (
          match Fault_model.splice model ~current ~faults ~failed:e with
          | Some (`Unchanged p) | Some (`Spliced p) ->
            t.stats.splices <- t.stats.splices + 1;
            Metrics.incr m_splices;
            raise (Found (Reconfig.Pipeline p))
          | None -> ())
        | Some (Reconfig.No_pipeline | Reconfig.Gave_up) | None -> ())
      faults;
    None
  with Found o -> Some o

(* The caller mutates its mask between calls, so the cache must own its
   keys: Shard_cache.add copies on insert (misses only — hits stay
   allocation-free) and evicts its shard's oldest resident at the
   bound. *)
let solve_model ?(cache = true) t model ~faults =
  require_same_instance t model "Engine.solve_model";
  if not cache then full_solve t model ~faults
  else begin
    t.stats.lookups <- t.stats.lookups + 1;
    let tbl = table t model in
    match Shard_cache.find_opt tbl faults with
    | Some outcome ->
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      Metrics.incr m_cache_hits;
      outcome
    | None -> (
      Metrics.incr m_cache_misses;
      (* L2: the precompiled store, promoted into L1 on a hit so the
         next probe for this set is a nanosecond-class cache hit.  The
         store path stays clock-free like L1 hits. *)
      match store_probe t model ~faults with
      | Some outcome ->
        Shard_cache.add tbl faults outcome;
        outcome
      | None ->
        let start = Mclock.now_ns () in
        let outcome =
          match splice_from_cache t tbl model ~faults with
          | Some o -> o
          | None -> full_solve t model ~faults
        in
        Shard_cache.add tbl faults outcome;
        let dur = Mclock.now_ns () - start in
        Metrics.observe h_solve_miss dur;
        if Span.enabled () then
          Span.emit ~name:"engine.solve"
            ~attrs:
              [
                ("faults", Span.Int (Bitset.cardinal faults));
                ("model", Span.Int (Fault_model.id model));
              ]
            ~start_ns:start ~dur_ns:dur ();
        outcome)
  end

let solve ?cache t ~faults = solve_model ?cache t t.node ~faults

let solve_list ?cache t ~faults =
  solve ?cache t ~faults:(Bitset.of_list (Instance.order t.inst) faults)

(* ------------------------------------------------------------------ *)
(* Parallel: domain-sharded verification                               *)
(* ------------------------------------------------------------------ *)

module Parallel = struct
  let default_domains () =
    match Sys.getenv_opt "GDPN_DOMAINS" with
    | Some s when int_of_string_opt (String.trim s) <> None ->
      Stdlib.max 1 (Option.get (int_of_string_opt (String.trim s)))
    | Some _ | None -> Stdlib.max 1 (Domain.recommended_domain_count () - 1)

  let resolve_domains = function
    | Some d -> Stdlib.max 1 d
    | None -> default_domains ()

  (* Below this many enumeration items per domain, spawning is a net loss
     (a [Domain.spawn]/join round trip costs on the order of a hundred
     microseconds — more than a small instance's whole verify), so
     [run_task] degrades to the serial path.  Benchmarks and tests
     override it ([~min_items_per_domain:0] forces real sharding). *)
  let default_min_items_per_domain = 512

  (* A persistent worker-domain pool.  [Domain.spawn] per verification
     call made the 2-domain path slower than the serial one on anything
     but huge fault spaces; the pool spawns workers lazily on first use,
     keeps them blocked on a condition variable between calls, and joins
     them at process exit.  Workers run arbitrary queued thunks, so one
     pool serves every parallel verification in the process; per-domain
     solver state lives in domain-local storage (Reconfig's scratch cache)
     and is amortised across calls for free. *)
  module Pool = struct
    type job = unit -> unit

    let lock = Mutex.create ()
    let wake = Condition.create ()
    let queue : job Queue.t = Queue.create ()
    let workers : unit Domain.t list ref = ref []
    let stopping = ref false

    let rec worker_loop () =
      Mutex.lock lock;
      while Queue.is_empty queue && not !stopping do
        Condition.wait wake lock
      done;
      let job = if !stopping then None else Some (Queue.pop queue) in
      Mutex.unlock lock;
      match job with
      | None -> ()
      | Some job ->
        job ();
        worker_loop ()

    let shutdown () =
      Mutex.lock lock;
      stopping := true;
      Condition.broadcast wake;
      Mutex.unlock lock;
      let ws = !workers in
      workers := [];
      List.iter Domain.join ws

    let exit_hook_installed = ref false

    (* Grow the pool to [n] workers (never shrinks). *)
    let ensure n =
      Mutex.lock lock;
      if not !exit_hook_installed then begin
        exit_hook_installed := true;
        at_exit shutdown
      end;
      let missing = n - List.length !workers in
      if missing > 0 && not !stopping then
        for _ = 1 to missing do
          workers := Domain.spawn worker_loop :: !workers
        done;
      Mutex.unlock lock

    (* Submit [f]; the returned thunk blocks until the job has run and
       returns its result (re-raising if it raised). *)
    let submit f =
      let cell = ref None in
      let cell_lock = Mutex.create () in
      let cell_done = Condition.create () in
      let job () =
        let r = try Ok (f ()) with e -> Error e in
        Mutex.lock cell_lock;
        cell := Some r;
        Condition.signal cell_done;
        Mutex.unlock cell_lock
      in
      Mutex.lock lock;
      Queue.push job queue;
      Condition.signal wake;
      Mutex.unlock lock;
      fun () ->
        Mutex.lock cell_lock;
        while !cell = None do
          Condition.wait cell_done cell_lock
        done;
        Mutex.unlock cell_lock;
        match Option.get !cell with Ok v -> v | Error e -> raise e
  end

  (* Work-stealing unit scheduler.  Each domain owns a contiguous span of
     the unit array, drained through its own atomic index — owners visit
     their units in order, so per-domain chain state (below) sees maximal
     prefix sharing — and turn thief when their span runs dry, sweeping
     the other spans round-robin.  This replaces both the old skewed
     (size, first-element) block partition of the plain path (the f0 = 0
     block alone held ~half the fault space, serialising the tail of
     every multi-domain run) and the single shared counter (which
     scattered consecutive units across domains, defeating prefix
     reuse). *)
  module Steal = struct
    type t = { next : int Atomic.t array; stop : int array }

    let create ~nunits ~domains =
      let nd = Stdlib.max 1 domains in
      {
        next = Array.init nd (fun i -> Atomic.make (i * nunits / nd));
        stop = Array.init nd (fun i -> (i + 1) * nunits / nd);
      }

    (* Next unit for domain [me]: own span first, then steal.  Returns
       [(unit, stolen)]; [fetch_and_add] hands out each index exactly
       once even under contention. *)
    let take t ~me =
      let nd = Array.length t.next in
      let rec go i =
        if i >= nd then None
        else begin
          let v = (me + i) mod nd in
          let idx = Atomic.fetch_and_add t.next.(v) 1 in
          if idx < t.stop.(v) then Some (idx, i > 0) else go (i + 1)
        end
      in
      go 0
  end

  let resolve_min_items = function
    | Some m -> Stdlib.max 0 m
    | None -> default_min_items_per_domain

  (* Verify's work units plus the checkpoint header that pins them. *)
  module Task = struct
    include Verify.Task

    let header ?(witnesses = false) t ~max_failures =
      match spec t with
      | None -> invalid_arg "Engine.Parallel.Task.header: sampled task"
      | Some s ->
        {
          Checkpoint.h_digest = Certify.digest (Fault_model.instance s.s_model);
          h_model = Fault_model.id s.s_model;
          h_orbit = s.s_orbit;
          h_splice = s.s_splice;
          h_max_failures = Stdlib.max 1 max_failures;
          h_usize = Fault_model.size s.s_model;
          h_max_size = s.s_max_size;
          h_nunits = nunits t;
          h_universe = s.s_universe;
          h_witnesses = witnesses;
        }
  end

  (* Drain a task's pending units over [domains] through {!Steal}, with
     optional durable checkpointing and resume.

     Checkpointing appends one {!Codec.unit_result} frame the moment a
     unit drains, capped at [max_failures] entries by a per-unit Topk
     (entries beyond the cap can never reach a merged report).
     Cutoff-skipped units are deliberately NOT recorded: the cutoff that
     justified the skip may rest on entries held by units still in
     flight, and recording the skip as "done, clean" would let a kill
     between the two strand the justification.  Re-skipping them on
     resume costs one rank comparison each.

     Resume seeds the early-stop cutoff from the recorded entries before
     any unit runs, removes the recorded units from the schedule, and
     feeds the recorded entry lists into the same deterministic rank
     merge as live per-domain buffers — so an interrupted-and-resumed run
     reproduces the uninterrupted report byte for byte, under any domain
     count.

     A witness sink sees every item, so its run never stops early: the
     recorded units' witnesses first, then each drained unit's, with its
     checkpoint record, under one lock. *)
  let run_task ?(max_failures = 5) ?domains ?min_items_per_domain
      ?checkpoint ?resumed ?witness task =
    let cap = Stdlib.max 1 max_failures in
    let domains = resolve_domains domains in
    let min_items = resolve_min_items min_items_per_domain in
    let nunits = Task.nunits task in
    let done_tbl =
      match resumed with Some tbl -> tbl | None -> Hashtbl.create 1
    in
    let pending =
      Array.of_list
        (List.filter
           (fun u -> not (Hashtbl.mem done_tbl u))
           (List.init nunits Fun.id))
    in
    Metrics.add m_units_resumed (nunits - Array.length pending);
    let resumed_sources =
      Hashtbl.fold (fun _ r acc -> r.Codec.r_entries :: acc) done_tbl []
    in
    (* The recorded entries alone may already hold [cap] failures: then
       nothing ranked above the cap-th lowest can reach the report. *)
    let init_cutoff =
      let ranks = List.concat_map (List.map fst) resumed_sources in
      match List.nth_opt (List.sort compare ranks) (cap - 1) with
      | Some r when witness = None -> r
      | Some _ | None -> max_int
    in
    let domains =
      if domains > 1 && Task.items task / domains < min_items then 1
      else domains
    in
    let steal = Steal.create ~nunits:(Array.length pending) ~domains in
    (* Once some domain holds [cap] failures, every fault set ranked
       above that domain's highest kept rank is dead weight; [cutoff]
       propagates a safe upper bound. *)
    let cutoff = Atomic.make init_cutoff in
    let rec tighten r =
      let current = Atomic.get cutoff in
      if r < current && not (Atomic.compare_and_set cutoff current r) then
        tighten r
    in
    let tighten = if witness = None then tighten else ignore in
    let sink_lock = Mutex.create () in
    let deliver ws =
      Option.iter
        (fun sink -> Mutex.protect sink_lock (fun () -> List.iter sink ws))
        witness
    in
    for u = 0 to nunits - 1 do
      Option.iter
        (fun r -> deliver r.Codec.r_witnesses)
        (Hashtbl.find_opt done_tbl u)
    done;
    let run_domain me () =
      let shard_start = Mclock.now_ns () in
      let steals = ref 0 in
      let next () =
        Option.map
          (fun (idx, stolen) ->
            if stolen then incr steals;
            pending.(idx))
          (Steal.take steal ~me)
      in
      let unit_witnesses = ref [] in
      let on_unit u entries =
        let ws = List.rev !unit_witnesses in
        unit_witnesses := [];
        Option.iter
          (fun w ->
            Checkpoint.append w
              { Codec.r_unit = u; r_entries = entries; r_witnesses = ws })
          checkpoint;
        deliver ws
      in
      let kept =
        Task.drain task ~max_failures:cap ~next
          ?witness:
            (Option.map
               (fun _ w -> unit_witnesses := w :: !unit_witnesses)
               witness)
          ~cutoff:(fun () -> Atomic.get cutoff)
          ~tighten ~on_unit
      in
      (kept, shard_start, Mclock.now_ns () - shard_start, !steals)
    in
    let tickets =
      if domains <= 1 then []
      else begin
        Pool.ensure (domains - 1);
        List.init (domains - 1) (fun i -> Pool.submit (run_domain (i + 1)))
      end
    in
    (* The calling domain participates instead of idling. *)
    let own = run_domain 0 () in
    let timed = own :: List.map (fun await -> await ()) tickets in
    (* Shard timings are observed from the calling domain after the join
       so worker hot loops never touch the sink; each span carries the
       shard's own start timestamp, so concurrent shards overlap in the
       trace instead of being stacked end to end. *)
    List.iteri
      (fun i (_, start_ns, elapsed, steals) ->
        Metrics.observe h_shard elapsed;
        Metrics.add m_steals steals;
        if Span.enabled () then
          Span.emit ~name:"engine.parallel_shard"
            ~attrs:[ ("shard", Span.Int i); ("steals", Span.Int steals) ]
            ~start_ns ~dur_ns:elapsed ())
      timed;
    let per_domain = List.map (fun (kept, _, _, _) -> kept) timed in
    Task.merge task ~max_failures:cap (per_domain @ resumed_sources)

  let verify_exhaustive ?budget ?max_failures ?domains ?min_items_per_domain
      ?symmetry ?splice inst =
    run_task ?max_failures ?domains ?min_items_per_domain
      (Task.exhaustive ?budget ?symmetry ?splice inst)

  let verify_sampled ~seed ~trials ?budget ?max_failures ?domains
      ?min_items_per_domain inst =
    run_task ?max_failures ?domains ?min_items_per_domain
      (Task.sampled_model ~rng:(Random.State.make [| seed |]) ~trials ?budget
         (Fault_model.node inst))
end

(* ------------------------------------------------------------------ *)
(* Plan compiles: the warehouse as a drain                             *)
(* ------------------------------------------------------------------ *)

type compiled = { c_resumed : Checkpoint.loaded option; c_gave_up : int }

(* Splicing off, every representative is solved from scratch by the
   plain solver, so no outcome depends on the schedule; the sink files
   outcomes by rank, and the writer takes them in rank order. *)
let compile_plans ?(budget = default_budget) ?domains ?(flat = false)
    ?max_size ?checkpoint ?resume model ~path =
  let inst = Fault_model.instance model in
  let usize = Fault_model.size model in
  let max_size =
    Option.fold max_size ~none:(Fault_model.max_faults model)
      ~some:(Stdlib.min usize)
  in
  (* Transporting a plan needs a node permutation, which the group's
     action on a generalized universe has forgotten. *)
  let symmetry =
    if Fault_model.is_node model && not flat then Some (Instance.symmetry inst)
    else None
  in
  let task =
    Parallel.Task.exhaustive_model ~budget ?symmetry ~splice:false ~max_size
      model
  in
  let header = lazy (Parallel.Task.header ~witnesses:true task ~max_failures:5) in
  Result.map
    (fun (session : Checkpoint.session) ->
      let found = Array.make (Parallel.Task.items task) None in
      Fun.protect
        ~finally:(fun () -> Option.iter Checkpoint.close session.writer)
        (fun () ->
          ignore
            (Parallel.run_task ~max_failures:5 ?domains ?checkpoint:session.writer
               ?resumed:(Option.map (fun l -> l.Checkpoint.l_results) session.loaded)
               ~witness:(fun w -> found.(w.Verify.w_rank) <- Some w)
               task));
      let store =
        Plan_store.writer ~digest:(Certify.digest inst)
          ~model_id:(Fault_model.id model)
          ~orbit:(Option.get (Parallel.Task.spec task)).s_orbit ~usize
          ~order:(Instance.order inst) ~max_size
      in
      Array.iter
        (fun w ->
          let { Verify.w_set; w_orbit; w_outcome; _ } = Option.get w in
          Plan_store.add store ~set:w_set ~count:w_orbit w_outcome)
        found;
      Plan_store.write store ~path;
      { c_resumed = session.loaded; c_gave_up = Plan_store.gave_up store })
    (Checkpoint.start ?create:checkpoint ?resume header)
