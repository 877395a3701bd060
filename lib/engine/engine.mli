(** The engine layer: reusable solver state, fault-plan caching, and
    multicore verification.

    {b Why it exists.}  Everything expensive in this repository reduces to
    "solve the reconfiguration problem for one fault set", repeated at
    scale: exhaustive verification enumerates [C(order, <=k)] fault sets,
    a plan compile stores each of them, the simulator re-solves on every
    mid-run fault, and the adversarial search probes thousands of candidate
    sets.  The seed implementation re-ran {!Gdpn_core.Reconfig.solve} from
    scratch each time, allocating fresh search state per call and using one
    core.  The engine fixes all three axes:

    - {b scratch reuse} — the backtracker's bitsets and degree scratch
      come from {!Gdpn_core.Reconfig}'s per-domain cache, allocated once
      per domain and graph order;
    - {b fault-plan cache} — solved outcomes are cached in a hashtable
      keyed on the fault masks themselves ({!Gdpn_graph.Bitset.hash} /
      [equal]), so hits allocate nothing.  On a miss the engine first
      tries to {e splice} a plan from a cached one-fault-smaller
      predecessor ({!Gdpn_core.Fault_model.splice}) — cheap local repair
      first, global re-solve second, mirroring the paper's §4
      reconfiguration discussion;
    - {b domain sharding} ({!Parallel}) — {!Gdpn_core.Verify}'s work
      units drained over OCaml 5 domains, optionally recorded in a
      checkpoint file, merged deterministically.

    Since PR 9 the fault-plan cache is a {!Shard_cache}: N hash-sharded
    slices with a lock-free read path and per-shard writer locks, bounded
    at [cache_limit] entries with oldest-first eviction.  The cache is
    therefore safe to share between domains — but an [Engine.t] {e as a
    whole} still is not (its scratch masks and stats are single-domain).
    {!reader} derives a domain-private handle over the same shared cache;
    {!Parallel} builds per-domain state internally.

    Every job has one body, written over a {!Gdpn_core.Fault_model.t}:
    {!solve_model}, {!Parallel.run_task} and {!compile_plans}.  The node
    entry points
    ({!solve}, {!Parallel.verify_exhaustive}, ...) pass the node model
    ({!Gdpn_core.Fault_model.node}), whose universe is the node set. *)

type t

type stats = {
  mutable lookups : int;  (** cached-solve calls *)
  mutable cache_hits : int;  (** answered from the plan cache *)
  mutable splices : int;  (** derived from a cached predecessor plan *)
  mutable full_solves : int;  (** full strategy-solver runs *)
}

val create : ?budget:int -> ?cache_limit:int -> Gdpn_core.Instance.t -> t
(** [budget] bounds solver expansions per solve (default 2_000_000);
    [cache_limit] bounds retained plans per fault model (default 65536 —
    at the bound the cache evicts its oldest resident to admit the new
    plan, counted in [engine.cache_evictions]).  The engine builds its
    node fault model ({!Gdpn_core.Fault_model.node}) here, once, and
    shares it with every {!reader}. *)

val reader : t -> t
(** A domain-private handle on the same instance and the {e same shared
    plan caches}: fresh scratch masks and {!stats}; cache
    hits, splices and inserts flow through the shared sharded tables.
    [K] readers on [K] domains may solve concurrently — this is how the
    [gdpd] daemon's worker domains serve one warm cache in parallel.
    The parent and its readers must not be used from two domains at
    once {e individually}; sharing is only through the caches. *)

val instance : t -> Gdpn_core.Instance.t
val budget : t -> int

val solve_model :
  ?cache:bool ->
  t ->
  Gdpn_core.Fault_model.t ->
  faults:Gdpn_graph.Bitset.t ->
  Gdpn_core.Reconfig.outcome
(** Like {!Gdpn_core.Fault_model.solve} but through the engine: plan
    cache, plan store, splice-before-solve.  The model must be built over
    this engine's instance ([Invalid_argument] otherwise); [faults] is a
    mask over its universe.  Plans are cached per model — the effective
    key is [(Fault_model.id, mask)] — and the splice probe repairs a
    cached one-element-smaller predecessor through the model's local rule
    ({!Gdpn_core.Fault_model.splice}, revalidated — a [Pipeline] outcome
    is always genuine).  [~cache:false] bypasses lookup, store, splice and
    insertion — verification uses this so its verdicts are exactly the
    plain solver's. *)

val solve :
  ?cache:bool -> t -> faults:Gdpn_graph.Bitset.t -> Gdpn_core.Reconfig.outcome
(** {!solve_model} over the engine's node model: [faults] is a node
    mask. *)

val solve_list :
  ?cache:bool -> t -> faults:int list -> Gdpn_core.Reconfig.outcome

val stats : t -> stats

val cache_size : t -> int
(** Residents in the node-model plan table. *)

val cache_total : t -> int
(** Residents across every plan table (node model + generalized
    models). *)

val cache_capacity : t -> int
(** Total bound of the node-model table (per-shard capacity × shards;
    each model table has the same bound). *)

val cache_evictions : t -> int
(** Evictions performed by this engine's tables since creation (the
    process-wide twin is the [engine.cache_evictions] counter). *)

val cache_shard_stats : t -> (int * int) array
(** Per-shard [(residents, evictions)] of the node-model table — the
    occupancy map shown by [gdp stats] and the daemon's stats
    response. *)

val attach_store : t -> path:string -> (unit, string) result
(** Mmap a precompiled {!Plan_store} as the L2 tier: cached solves
    probe L1 ({!Shard_cache}) first, then the store — canonicalizing the
    fault set and transporting the stored plan through the automorphism
    when the store is orbit-compressed — and only then splice/solve; a
    store hit is promoted into L1.  Fails if the store's digest does not
    match this engine's instance.  The attachment is shared with every
    {!reader} of this engine (that is how the daemon's worker domains
    see it); concurrent lookups are safe, the store is immutable.
    Transported and stored plans are revalidated before being served, so
    a corrupt or tampered store degrades to the solve path — it can
    never produce a wrong plan. *)

val detach_store : t -> unit
(** Drop the L2 tier (chaos harness: the store file "vanishes"
    mid-storm).  Subsequent solves fall back to L1/solve.  Idempotent. *)

val plan_store : t -> Plan_store.t option
(** The attached store, for stats display. *)

val cache_trim : t -> keep:int -> unit
(** Evict oldest-first until every plan table holds at most [keep]
    entries; removals count as evictions.  The chaos harness's
    mid-storm cache-eviction event.  [~keep:0] forces a full
    eviction-path flush (unlike {!crash_restart}, which models losing
    the tables wholesale). *)

val reset : t -> unit
(** Drop all cached plans and zero the counters. *)

val crash_restart : t -> unit
(** Simulate an engine process crash and restart: drop every cached plan
    (the in-memory state a real restart loses) but keep the cumulative
    {!stats} — they model external monitoring, which survives restarts.
    Subsequent solves rebuild the cache from scratch; bumps the
    [engine.crash_restarts] metric.  The chaos harness
    ([Gdpn_faultsim.Scenario]) injects this to check plan-cache coherence
    across cold restarts. *)

(** Multicore and out-of-core verification: the scheduling half of
    verification.  {!Gdpn_core.Verify.Task} cuts the fault space into
    work units and checks them; this module drains those units over a
    domain pool with work stealing, optionally recording each drained
    unit in a checkpoint and resuming from one.  Every drain merges
    rank-tagged failures with {!Gdpn_core.Verify.Task.merge}, so reports
    are identical to [Verify]'s whatever the domain count. *)
module Parallel : sig
  val default_domains : unit -> int
  (** [GDPN_DOMAINS] when set to a positive integer, otherwise
      [Domain.recommended_domain_count () - 1], at least 1. *)

  val verify_exhaustive :
    ?budget:int ->
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    ?symmetry:Gdpn_graph.Auto.group ->
    ?splice:bool ->
    Gdpn_core.Instance.t ->
    Gdpn_core.Verify.report
  (** {!run_task} over [Task.exhaustive ?budget ?symmetry ?splice inst]:
      {!Gdpn_core.Verify.exhaustive}'s report, drained over [domains]. *)

  val verify_sampled :
    seed:int ->
    trials:int ->
    ?budget:int ->
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    Gdpn_core.Instance.t ->
    Gdpn_core.Verify.report
  (** {!Gdpn_core.Verify.sampled} with [rng] seeded from [seed] alone
      (never from instance parameters, which would correlate the
      fault-sample sequences of same-order instances), its units drained
      by {!run_task}. *)

  (** {!Gdpn_core.Verify.Task} plus the checkpoint header that pins a
      task, so that a resumed run rebuilds the identical unit array. *)
  module Task : sig
    include
      module type of Gdpn_core.Verify.Task
        with type t = Gdpn_core.Verify.Task.t

    val header :
      ?witnesses:bool -> t -> max_failures:int -> Checkpoint.header
    (** The checkpoint header pinning this task's instance, model, mode,
        universe, max size, cap and unit count, and whether its records
        carry witnesses (default [false]).  Raises [Invalid_argument] on
        a sampled task. *)
  end

  val run_task :
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    ?checkpoint:Checkpoint.writer ->
    ?resumed:(int, Codec.unit_result) Hashtbl.t ->
    ?witness:(Gdpn_core.Verify.witness -> unit) ->
    Task.t ->
    Gdpn_core.Verify.report
  (** Drain a task's units over [domains] workers (the calling domain
      included), one {!Gdpn_core.Verify.Task.drain} each.  Each worker
      owns a contiguous span of the unit array with its own atomic
      index, visits it in order — so its chain of solved prefix plans
      pops and re-grows by a few elements per unit — and steals from the
      other spans when its own runs dry ([engine.parallel_steals], and
      each shard's trace span).  Worker domains come from a process-wide
      persistent pool, spawned lazily, parked between calls and joined
      at exit.  When the task divides out to fewer than
      [min_items_per_domain] items per domain (default 512), the call
      drains on the calling domain alone: same report.  Pass
      [~min_items_per_domain:0] to force real sharding.  With
      [checkpoint], one
      {!Codec.unit_result} frame is appended the moment each unit drains
      (capped at [max_failures] entries — higher ranks can never reach a
      merged report); cutoff-skipped units are not recorded, since their
      justification may still be in flight.  With [resumed] (from
      {!Checkpoint.load}), recorded units are skipped, their entries seed
      the early-stop cutoff and join the final merge — the resumed report
      is identical to an uninterrupted run's, under any domain count.  Bumps [verify.units_resumed].

      With [witness], the drain never stops early: [witness] gets the
      [resumed] units' witnesses in unit order, then each drained unit's
      as it completes (one unit at a time, in schedule order), and each
      [checkpoint] record carries its unit's. *)
end

(** {1 Plan compiles} *)

type compiled = {
  c_resumed : Checkpoint.loaded option;  (** what a resumed file held *)
  c_gave_up : int;  (** sets left out: the solver hit its budget *)
}

val compile_plans :
  ?budget:int ->
  ?domains:int ->
  ?flat:bool ->
  ?max_size:int ->
  ?checkpoint:string ->
  ?resume:string ->
  Gdpn_core.Fault_model.t ->
  path:string ->
  (compiled, string) result
(** [gdp compile-plans]: store the outcome of every fault set of size
    [0..max_size] (default {!Gdpn_core.Fault_model.max_faults}) in a
    {!Plan_store} at [path].  The node model's orbit task is drained
    with splicing off over [domains] ({!Parallel.run_task}), each
    representative solved from scratch in [budget] expansions (default
    2,000,000); [flat], a trivial group or another model drain the
    plain task.  The bytes depend on neither the domain count nor a
    kill and resume: [checkpoint] starts a {!Checkpoint}, [resume]
    continues one, and [Error] is a refused resume. *)
