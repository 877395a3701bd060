module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Hamilton = Gdpn_graph.Hamilton
module Auto = Gdpn_graph.Auto
module Metrics = Gdpn_obs.Metrics
module Span = Gdpn_obs.Span
module Mclock = Gdpn_obs.Mclock
open Gdpn_core

(* Observability instruments (process-wide, see Gdpn_obs.Metrics).
   The cache-hit path deliberately stays clock-free: a hit is a hashtable
   probe measured in nanoseconds, and even one [Mclock.now_ns] pair would
   dominate it (the B11 bench row).  Only misses get a latency sample. *)
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
let h_verify = Metrics.histogram "engine.verify_ns"
let h_shard = Metrics.histogram "engine.parallel_shard_ns"

(* Same cells as Verify's own instruments (registration is idempotent by
   name): the parallel shards account their representatives and splice
   work here, where the orbit sizes and chain state are known. *)
let m_orbits_checked = Metrics.counter "verify.orbits_checked"
let m_calls_saved = Metrics.counter "verify.solver_calls_saved"
let m_v_solver_calls = Metrics.counter "verify.solver_calls"
let m_v_scaffold_solves = Metrics.counter "verify.scaffold_solves"

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
  ctx : Hamilton.ctx;
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
    ctx = Reconfig.make_ctx inst;
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
   caches: fresh solver ctx, scratch and stats (those are the parts an
   Engine.t cannot share across domains).  The daemon gives each worker
   domain one reader per fleet engine. *)
let reader t =
  {
    t with
    ctx = Reconfig.make_ctx t.inst;
    stats = fresh_stats ();
    scratch = Hashtbl.create 4;
  }

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
  Fault_model.solve ~budget:t.budget ~ctx:t.ctx model ~faults

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
(* Engine-backed workloads                                             *)
(* ------------------------------------------------------------------ *)

let verify_exhaustive_model ?max_failures ?universe ?symmetry ?splice t model
    =
  require_same_instance t model "Engine.verify_exhaustive_model";
  Metrics.time h_verify (fun () ->
      Verify.exhaustive_model ~budget:t.budget
        ~solve:(fun ~faults -> solve_model ~cache:false t model ~faults)
        ?max_failures ?universe ?symmetry ?splice model)

let verify_sampled_model ~seed ~trials ?max_failures t model =
  require_same_instance t model "Engine.verify_sampled_model";
  Metrics.time h_verify (fun () ->
      Verify.sampled_model
        ~rng:(Random.State.make [| seed |])
        ~trials ~budget:t.budget
        ~solve:(fun ~faults -> solve_model ~cache:false t model ~faults)
        ?max_failures model)

let verify_exhaustive ?max_failures ?universe ?symmetry ?splice t =
  verify_exhaustive_model ?max_failures ?universe ?symmetry ?splice t t.node

let verify_sampled ~seed ~trials ?max_failures t =
  verify_sampled_model ~seed ~trials ?max_failures t t.node

let certify ?(symmetry = true) t =
  let solve ~faults = solve t ~faults in
  if symmetry then
    Certify.generate_orbits ~solve ~symmetry:(Instance.symmetry t.inst) t.inst
  else Certify.generate ~solve t.inst

let certify_model t model =
  require_same_instance t model "Engine.certify_model";
  Certify.generate_model
    ~solve:(fun ~faults -> solve_model t model ~faults)
    model

(* Streamed v4 certification: witnesses leave the process as they are
   found, so certification is bounded by disk, not memory. *)
let certify_to ?(symmetry = true) t oc =
  let solve ~faults = solve t ~faults in
  if symmetry then
    Certify.generate_orbits_to ~solve ~symmetry:(Instance.symmetry t.inst) oc
      t.inst
  else Certify.generate_to ~solve oc t.inst

let pp_stats ppf s =
  Format.fprintf ppf "lookups=%d hits=%d splices=%d solves=%d" s.lookups
    s.cache_hits s.splices s.full_solves

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
     solver state lives in domain-local storage ({!Reconfig.cached_ctx})
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

  (* Per-domain chain of solved prefix plans, mirroring the sequential
     prefix-tree walk: [c_res.(d)] is the (memoised) outcome for the
     prefix [c_elts.(0..d-1)]; [c_len = -1] until the empty set has been
     solved.  Negative outcomes are memoised too — the solver is
     deterministic, so reusing a recorded [Error] is identical to
     re-solving.  With [c_splice = false] the chain degrades to a mask
     maintainer: every reported check is a from-scratch solve and
     scaffold pushes cost nothing. *)
  type chain = {
    c_model : Fault_model.t;
    c_solve : faults:Bitset.t -> Reconfig.outcome;
    c_splice : bool;
    c_mask : Bitset.t;
    c_elts : int array;
    c_res : (Pipeline.t, string) result array;
    mutable c_len : int;
  }

  (* One ctx per domain serves the base instance and every link-degraded
     one: ctx scratch is sized by graph order, which degradation
     preserves. *)
  let solver ?budget model =
    let ctx = Reconfig.cached_ctx (Fault_model.instance model) in
    fun ~faults -> Fault_model.solve ?budget ~ctx model ~faults

  (* The chain's checks run through the model: {!Fault_model} supplies
     the degraded instance and the local repair rule. *)
  let chain_make ?budget ~splice model =
    let k = Fault_model.max_faults model in
    {
      c_model = model;
      c_solve = solver ?budget model;
      c_splice = splice;
      c_mask = Bitset.create (Fault_model.size model);
      c_elts = Array.make (Stdlib.max 1 k) (-1);
      c_res = Array.make (k + 1) (Error "unsolved");
      c_len = -1;
    }

  let chain_solve ch =
    Verify.solve_checked_model ~solve:ch.c_solve ch.c_model ch.c_mask

  (* Ensure the empty set has a plan (scaffold — the empty set is
     reported by whichever unit covers rank 0). *)
  let chain_root ch =
    if ch.c_len < 0 then begin
      if ch.c_splice then begin
        Metrics.incr m_v_scaffold_solves;
        ch.c_res.(0) <- chain_solve ch
      end;
      ch.c_len <- 0
    end

  let chain_push ch ~reported e =
    Bitset.add ch.c_mask e;
    let r =
      if ch.c_splice then
        Verify.splice_checked_model ~solve:ch.c_solve ~reported ch.c_model
          ~parent:ch.c_res.(ch.c_len) ~mask:ch.c_mask ~failed:e
      else if reported then chain_solve ch
      else Error "unsolved"
    in
    ch.c_elts.(ch.c_len) <- e;
    ch.c_res.(ch.c_len + 1) <- r;
    ch.c_len <- ch.c_len + 1;
    r

  let chain_pop ch =
    ch.c_len <- ch.c_len - 1;
    Bitset.remove ch.c_mask ch.c_elts.(ch.c_len)

  (* Align the chain to the prefix [target.(0..m-1)]: pop to the longest
     common prefix, scaffold-push the rest. *)
  let chain_align ch target m =
    chain_root ch;
    let lcp = ref 0 in
    while !lcp < ch.c_len && !lcp < m && ch.c_elts.(!lcp) = target.(!lcp) do
      incr lcp
    done;
    while ch.c_len > !lcp do
      chain_pop ch
    done;
    for i = !lcp to m - 1 do
      ignore (chain_push ch ~reported:false target.(i))
    done

  (* ------------------------------------------------------------------ *)
  (* First-class work units                                              *)
  (* ------------------------------------------------------------------ *)

  let resolve_min_items = function
    | Some m -> Stdlib.max 0 m
    | None -> default_min_items_per_domain

  (* A [task] is one verification problem decomposed into serializable
     work units ({!Codec.unit_desc}).  The decomposition is canonical —
     a function of the instance and mode alone, never of the domain or
     process count — so a checkpoint written under one topology resumes
     under any other, and an out-of-process worker rebuilds the identical
     unit array from the spec on its command line. *)
  type task = {
    t_units : Codec.unit_desc array;
    t_min_rank : int array;
        (* per-unit lower bound on the ranks it can emit: lets schedulers
           and coordinators skip whole units once the early-stop cutoff
           passes them *)
    t_est_items : int;  (* fault-set estimate for the serial-fallback gate *)
    t_counts : int option -> int * int;
    t_header : max_failures:int -> Checkpoint.header;
    t_mk_processor :
      unit ->
      (record:(rank:int -> Verify.failure -> unit) ->
      cutoff:(unit -> int) ->
      int ->
      unit);
        (* called once per domain or worker process (builds the solver
           and the prefix chain); the result processes one unit id per
           call, with [record]/[cutoff] supplied per call so schedulers
           can interpose per-unit capture *)
    t_settle : Verify.report -> unit;
  }

  (* The checkpoint header pinning an exhaustive task's spec. *)
  let exhaustive_header model ~orbit ~splice ~usize ~k ~nunits =
    let digest = Certify.digest (Fault_model.instance model) in
    fun ~max_failures ->
      {
        Checkpoint.h_digest = digest;
        h_model = Fault_model.id model;
        h_orbit = orbit;
        h_splice = splice;
        h_max_failures = Stdlib.max 1 max_failures;
        h_usize = usize;
        h_k = k;
        h_nunits = nunits;
      }

  (* Plain-path work units: one [Shallow] unit covering the sets of size
     < d (d = min k 2: the empty set, and the singletons when k >= 2),
     plus one [Rooted] unit per size-d prefix, covering that prefix's
     whole DFS subtree.  C(order, d) + 1 units of comparable weight —
     unlike the old (size, first-element) blocks, where the f0 = 0 block
     held roughly half the space. *)
  let plain_units ~order ~k =
    let roots =
      if k = 0 then []
      else if k = 1 then List.init order (fun v -> Codec.Rooted [| v |])
      else
        List.concat
          (List.init order (fun a ->
               List.init (order - a - 1) (fun j ->
                   Codec.Rooted [| a; a + 1 + j |])))
    in
    Array.of_list (Codec.Shallow :: roots)

  let plain_task ?budget ~splice model =
    let usize = Fault_model.size model in
    let k = Stdlib.min (Fault_model.max_faults model) usize in
    let total = Combinat.count_up_to usize k in
    let units = plain_units ~order:usize ~k in
    let d = Stdlib.min k 2 in
    let min_rank =
      Array.map
        (function
          | Codec.Shallow -> 0
          | Codec.Rooted p -> Combinat.rank_of_subset usize p (Array.length p)
          | Codec.Span _ -> assert false)
        units
    in
    let mk_processor () =
      let ch = chain_make ?budget ~splice model in
      fun ~record ~cutoff u ->
        let fail buf len reason =
          record
            ~rank:(Combinat.rank_of_subset usize buf len)
            {
              Verify.faults = Array.to_list (Array.sub buf 0 len);
              reason;
              orbit = 1;
            }
        in
        let process_shallow () =
          chain_root ch;
          while ch.c_len > 0 do
            chain_pop ch
          done;
          (match if ch.c_splice then ch.c_res.(0) else chain_solve ch with
          | Ok _ -> ()
          | Error reason ->
            record ~rank:0 { Verify.faults = []; reason; orbit = 1 });
          if d >= 2 then
            for v = 0 to usize - 1 do
              let co = cutoff () in
              if not (co < max_int && 1 + v > co) then begin
                (match chain_push ch ~reported:true v with
                | Ok _ -> ()
                | Error reason -> fail [| v |] 1 reason);
                chain_pop ch
              end
            done
        in
        let process_rooted prefix =
          let dd = Array.length prefix in
          let co0 = cutoff () in
          if co0 < max_int && Combinat.rank_of_subset usize prefix dd > co0
          then ()
          else begin
            chain_align ch prefix (dd - 1);
            Combinat.iter_subsets_dfs ~root:prefix usize k
              ~enter:(fun buf len ->
                let e = buf.(len - 1) in
                let co = cutoff () in
                if co < max_int && Combinat.rank_of_subset usize buf len > co
                then begin
                  (* Pruned: push a placeholder so [leave]'s pop pairs
                     up; no child ever reads it. *)
                  Bitset.add ch.c_mask e;
                  ch.c_elts.(ch.c_len) <- e;
                  ch.c_res.(ch.c_len + 1) <- Error "pruned";
                  ch.c_len <- ch.c_len + 1;
                  false
                end
                else begin
                  (match chain_push ch ~reported:true e with
                  | Ok _ -> ()
                  | Error reason -> fail buf len reason);
                  true
                end)
              ~leave:(fun _ _ -> chain_pop ch)
          end
        in
        match units.(u) with
        | Codec.Shallow -> process_shallow ()
        | Codec.Rooted prefix -> process_rooted prefix
        | Codec.Span _ -> invalid_arg "plain task: Span unit"
    in
    {
      t_units = units;
      t_min_rank = min_rank;
      t_est_items = total;
      t_counts = (function Some r -> (r + 1, r + 1) | None -> (total, total));
      t_header =
        exhaustive_header model ~orbit:false ~splice ~usize ~k
          ~nunits:(Array.length units);
      t_mk_processor = mk_processor;
      (* Settle the choke-point counter against the merged report (see
         the sequential DFS path): per-check increments would drift on
         pruned subtrees and double-count scaffolds. *)
      t_settle =
        (fun r -> Metrics.add m_v_solver_calls r.Verify.solver_calls);
    }

  (* Target unit count for span-chunked modes.  Fixed — deliberately NOT
     a function of the domain count, which would make the decomposition
     topology-dependent and break checkpoint portability across
     [--procs]/[GDPN_DOMAINS] settings; ~256 units keeps work stealing
     effective at any plausible core count while bounding the number of
     checkpoint records. *)
  let span_unit_target = 256

  let span_chunks n =
    let chunk =
      Stdlib.max 1 ((n + span_unit_target - 1) / span_unit_target)
    in
    let nunits = Stdlib.max 1 ((n + chunk - 1) / chunk) in
    (chunk, nunits)

  (* Orbit-reduced units with orbit×splice fusion: the representative
     stream is re-ordered into DFS preorder (lexicographic by element
     sequence, prefixes first) before span-chunking, so consecutive
     representatives inside a unit share maximal prefixes and each
     splices from its nearest solved ancestor — the orbit stream rides
     the same per-domain prefix chains as the plain DFS decomposition
     instead of popping to a shallow common prefix between size-major
     neighbours.  Ranks stay the {e original} size-major indices, so the
     prefix-sum counts and the merged report are untouched by the
     re-ordering. *)
  let orbit_task ?budget ~splice model reps =
    let usize = Fault_model.size model in
    let k = Fault_model.max_faults model in
    let nreps = Array.length reps in
    let prefix = Array.make (nreps + 1) 0 in
    for i = 0 to nreps - 1 do
      prefix.(i + 1) <- prefix.(i) + reps.(i).Auto.size
    done;
    let counts = function
      | Some stop_rank -> (prefix.(stop_rank + 1), stop_rank + 1)
      | None -> (prefix.(nreps), nreps)
    in
    let dfs = Array.init nreps Fun.id in
    let cmp i j =
      let a = reps.(i).Auto.set and b = reps.(j).Auto.set in
      let la = Array.length a and lb = Array.length b in
      let rec go t =
        if t >= la || t >= lb then compare la lb
        else if a.(t) <> b.(t) then compare a.(t) b.(t)
        else go (t + 1)
      in
      go 0
    in
    Array.sort cmp dfs;
    let chunk, nunits = span_chunks nreps in
    let units =
      Array.init nunits (fun u ->
          Codec.Span (u * chunk, Stdlib.min ((u + 1) * chunk) nreps))
    in
    let min_rank =
      Array.map
        (function
          | Codec.Span (lo, hi) ->
            let m = ref max_int in
            for pos = lo to hi - 1 do
              if dfs.(pos) < !m then m := dfs.(pos)
            done;
            !m
          | _ -> assert false)
        units
    in
    let mk_processor () =
      let ch = chain_make ?budget ~splice model in
      fun ~record ~cutoff u ->
        match units.(u) with
        | Codec.Span (lo, hi) ->
          for pos = lo to hi - 1 do
            let i = dfs.(pos) in
            if i <= cutoff () then begin
              let { Auto.set; size } = reps.(i) in
              let m = Array.length set in
              Metrics.incr m_orbits_checked;
              Metrics.add m_calls_saved (size - 1);
              Metrics.incr m_v_solver_calls;
              let r =
                if m = 0 then begin
                  if ch.c_len < 0 then begin
                    ch.c_res.(0) <- chain_solve ch;
                    ch.c_len <- 0
                  end
                  else if not ch.c_splice then begin
                    while ch.c_len > 0 do
                      chain_pop ch
                    done;
                    ch.c_res.(0) <- chain_solve ch
                  end;
                  ch.c_res.(0)
                end
                else begin
                  chain_align ch set (m - 1);
                  chain_push ch ~reported:true set.(m - 1)
                end
              in
              match r with
              | Ok _ -> ()
              | Error reason ->
                record ~rank:i
                  { Verify.faults = Array.to_list set; reason; orbit = size }
            end
          done
        | _ -> invalid_arg "orbit task: non-span unit"
    in
    {
      t_units = units;
      t_min_rank = min_rank;
      t_est_items = nreps;
      t_counts = counts;
      t_header = exhaustive_header model ~orbit:true ~splice ~usize ~k ~nunits;
      t_mk_processor = mk_processor;
      t_settle = ignore;
    }

  (* Draw the whole trial sequence up front on one RNG — byte-identical
     to the sequential sampled stream for the same seed — then shard only
     the solving.  Sampled sets share no prefix structure, so there is no
     chain: each trial is checked from scratch.  Sampled tasks are not
     checkpointable from the CLI; the header exists only to satisfy the
     record. *)
  let sampled_task ?budget ~seed ~trials model =
    let usize = Fault_model.size model in
    let k = Fault_model.max_faults model in
    let rng = Random.State.make [| seed |] in
    let sets = Array.make trials [||] in
    for i = 0 to trials - 1 do
      sets.(i) <- Combinat.sample_up_to rng usize k
    done;
    let chunk, nunits = span_chunks trials in
    let units =
      Array.init nunits (fun u ->
          Codec.Span (u * chunk, Stdlib.min ((u + 1) * chunk) trials))
    in
    let min_rank =
      Array.map
        (function Codec.Span (lo, _) -> lo | _ -> assert false)
        units
    in
    let mk_processor () =
      let solve = solver ?budget model in
      let mask = Bitset.create usize in
      fun ~record ~cutoff u ->
        match units.(u) with
        | Codec.Span (lo, hi) ->
          for i = lo to Stdlib.min (hi - 1) (trials - 1) do
            if i <= cutoff () then begin
              let buf = sets.(i) in
              let len = Array.length buf in
              Bitset.clear mask;
              for j = 0 to len - 1 do
                Bitset.add mask buf.(j)
              done;
              match Verify.check_mask_model ~solve model mask with
              | Ok () -> ()
              | Error reason ->
                record ~rank:i
                  { Verify.faults = Array.to_list buf; reason; orbit = 1 }
            end
          done
        | _ -> invalid_arg "sampled task: non-span unit"
    in
    {
      t_units = units;
      t_min_rank = min_rank;
      t_est_items = trials;
      t_counts =
        (function Some r -> (r + 1, r + 1) | None -> (trials, trials));
      t_header =
        (fun ~max_failures ->
          {
            Checkpoint.h_digest = "";
            h_model = 0;
            h_orbit = false;
            h_splice = false;
            h_max_failures = Stdlib.max 1 max_failures;
            h_usize = usize;
            h_k = k;
            h_nunits = nunits;
          });
      t_mk_processor = mk_processor;
      t_settle = ignore;
    }

  let task_exhaustive_model ?budget ?symmetry ?(splice = true) model =
    match Option.map (Fault_model.induced_symmetry model) symmetry with
    | Some group when not (Auto.is_trivial group) ->
      orbit_task ?budget ~splice model
        (Auto.fault_orbits group ~max_size:(Fault_model.max_faults model))
    | Some _ | None -> plain_task ?budget ~splice model

  let task_exhaustive ?budget ?symmetry ?splice inst =
    task_exhaustive_model ?budget ?symmetry ?splice (Fault_model.node inst)

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
     or process count. *)
  let run_task ?(max_failures = 5) ?domains ?min_items_per_domain
      ?checkpoint ?resumed task =
    let cap = Stdlib.max 1 max_failures in
    let domains = resolve_domains domains in
    let min_items = resolve_min_items min_items_per_domain in
    let nunits = Array.length task.t_units in
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
    let seed_topk = Verify.Topk.create cap in
    List.iter
      (List.iter (fun (rank, f) -> Verify.Topk.insert seed_topk ~rank f))
      resumed_sources;
    let init_cutoff =
      if Verify.Topk.full seed_topk then Verify.Topk.max_rank seed_topk
      else max_int
    in
    let domains =
      if domains > 1 && task.t_est_items / domains < min_items then 1
      else domains
    in
    let steal = Steal.create ~nunits:(Array.length pending) ~domains in
    (* Once some domain holds [cap] failures, every fault set ranked
       above that domain's highest kept rank is dead weight; [cutoff]
       propagates a safe upper bound. *)
    let cutoff = Atomic.make init_cutoff in
    let tighten r =
      let rec go () =
        let current = Atomic.get cutoff in
        if r < current && not (Atomic.compare_and_set cutoff current r) then
          go ()
      in
      go ()
    in
    let read_cutoff () = Atomic.get cutoff in
    let run_domain me () =
      let shard_start = Mclock.now_ns () in
      let process = task.t_mk_processor () in
      let kept = Verify.Topk.create cap in
      let record ~rank failure =
        Verify.Topk.insert kept ~rank failure;
        if Verify.Topk.full kept then tighten (Verify.Topk.max_rank kept)
      in
      let steals = ref 0 in
      let rec drain () =
        match Steal.take steal ~me with
        | Some (idx, stolen) ->
          if stolen then incr steals;
          let u = pending.(idx) in
          let co = Atomic.get cutoff in
          if not (co < max_int && task.t_min_rank.(u) > co) then begin
            match checkpoint with
            | None -> process ~record ~cutoff:read_cutoff u
            | Some w ->
              let local = Verify.Topk.create cap in
              let record_ck ~rank failure =
                record ~rank failure;
                Verify.Topk.insert local ~rank failure
              in
              process ~record:record_ck ~cutoff:read_cutoff u;
              Checkpoint.append w
                { Codec.r_unit = u; r_entries = Verify.Topk.to_list local }
          end;
          drain ()
        | None -> ()
      in
      drain ();
      ( Verify.Topk.to_list kept,
        shard_start,
        Mclock.now_ns () - shard_start,
        !steals )
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
    let report =
      Verify.merge_tagged ~max_failures:cap ~counts:task.t_counts
        (per_domain @ resumed_sources)
    in
    task.t_settle report;
    report

  module Task = struct
    type t = task

    let exhaustive = task_exhaustive
    let exhaustive_model = task_exhaustive_model
    let nunits t = Array.length t.t_units
    let min_rank t u = t.t_min_rank.(u)
    let header t ~max_failures = t.t_header ~max_failures
    let processor t = t.t_mk_processor ()

    let merge t ~max_failures sources =
      let report =
        Verify.merge_tagged
          ~max_failures:(Stdlib.max 1 max_failures)
          ~counts:t.t_counts sources
      in
      t.t_settle report;
      report
  end

  let verify_exhaustive_model ?budget ?max_failures ?domains
      ?min_items_per_domain ?symmetry ?splice model =
    run_task ?max_failures ?domains ?min_items_per_domain
      (task_exhaustive_model ?budget ?symmetry ?splice model)

  let verify_exhaustive ?budget ?max_failures ?domains ?min_items_per_domain
      ?symmetry ?splice inst =
    verify_exhaustive_model ?budget ?max_failures ?domains
      ?min_items_per_domain ?symmetry ?splice (Fault_model.node inst)

  let verify_sampled_model ~seed ~trials ?budget ?max_failures ?domains
      ?min_items_per_domain model =
    run_task ?max_failures ?domains ?min_items_per_domain
      (sampled_task ?budget ~seed ~trials model)

  let verify_sampled ~seed ~trials ?budget ?max_failures ?domains
      ?min_items_per_domain inst =
    verify_sampled_model ~seed ~trials ?budget ?max_failures ?domains
      ?min_items_per_domain (Fault_model.node inst)
end
