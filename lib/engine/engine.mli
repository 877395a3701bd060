(** The engine layer: reusable solver state, fault-plan caching, and
    multicore verification.

    {b Why it exists.}  Everything expensive in this repository reduces to
    "solve the reconfiguration problem for one fault set", repeated at
    scale: exhaustive verification enumerates [C(order, <=k)] fault sets,
    certification witnesses each of them, the simulator re-solves on every
    mid-run fault, and the adversarial search probes thousands of candidate
    sets.  The seed implementation re-ran {!Gdpn_core.Reconfig.solve} from
    scratch each time, allocating fresh search state per call and using one
    core.  The engine fixes all three axes:

    - {b ctx reuse} — one {!Gdpn_core.Reconfig.make_ctx} per engine; the
      backtracker's bitsets and degree scratch are allocated once;
    - {b fault-plan cache} — solved outcomes are cached in a hashtable
      keyed on the fault masks themselves ({!Gdpn_graph.Bitset.hash} /
      [equal]), so hits allocate nothing.  On a miss the engine first
      tries to {e splice} a plan from a cached one-fault-smaller
      predecessor ({!Gdpn_core.Fault_model.splice}) — cheap local repair
      first, global re-solve second, mirroring the paper's §4
      reconfiguration discussion;
    - {b domain sharding} ({!Parallel}) — fault-space enumeration fanned
      out over OCaml 5 domains with per-domain ctxs and deterministic
      result merging.

    Since PR 9 the fault-plan cache is a {!Shard_cache}: N hash-sharded
    slices with a lock-free read path and per-shard writer locks, bounded
    at [cache_limit] entries with oldest-first eviction.  The cache is
    therefore safe to share between domains — but an [Engine.t] {e as a
    whole} still is not (its solver ctx and scratch masks are
    single-domain).  {!reader} derives a domain-private handle over the
    same shared cache; {!Parallel} builds per-domain state internally.

    Every job has one body, written over a {!Gdpn_core.Fault_model.t}:
    {!solve_model}, {!verify_exhaustive_model}, {!verify_sampled_model}
    and their {!Parallel} forms.  The node entry points ({!solve},
    {!verify_exhaustive}, ...) pass the engine's node model
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
    plan caches}: fresh solver ctx, scratch masks and {!stats}; cache
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
    cache, plan store, splice-before-solve, ctx reuse.  The model must be
    built over this engine's instance ([Invalid_argument] otherwise);
    [faults] is a mask over its universe.  Plans are cached per model —
    the effective key is [(Fault_model.id, mask)] — and the splice probe
    repairs a cached one-element-smaller predecessor through the model's
    local rule ({!Gdpn_core.Fault_model.splice}, revalidated — a
    [Pipeline] outcome is always genuine).  [~cache:false] bypasses
    lookup, store, splice and insertion (still reuses the ctx) —
    verification uses this so its verdicts are exactly the plain
    solver's. *)

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

val verify_exhaustive_model :
  ?max_failures:int ->
  ?universe:int list ->
  ?symmetry:Gdpn_graph.Auto.group ->
  ?splice:bool ->
  t ->
  Gdpn_core.Fault_model.t ->
  Gdpn_core.Verify.report
(** {!Gdpn_core.Verify.exhaustive_model} through the engine's ctx
    (uncached checks; see {!solve_model}).  [symmetry] (the node group;
    its induced action on the universe drives orbit reduction) enables
    orbit-reduced enumeration; [splice] (default true) the prefix-tree
    splice-first enumeration. *)

val verify_sampled_model :
  seed:int ->
  trials:int ->
  ?max_failures:int ->
  t ->
  Gdpn_core.Fault_model.t ->
  Gdpn_core.Verify.report
(** {!Gdpn_core.Verify.sampled_model} through the engine's ctx.  The RNG
    is derived from the explicit [seed] alone — never from instance
    parameters, which would correlate the fault-sample sequences of
    same-order instances. *)

val verify_exhaustive :
  ?max_failures:int ->
  ?universe:int list ->
  ?symmetry:Gdpn_graph.Auto.group ->
  ?splice:bool ->
  t ->
  Gdpn_core.Verify.report
(** {!verify_exhaustive_model} over the engine's node model. *)

val verify_sampled :
  seed:int -> trials:int -> ?max_failures:int -> t -> Gdpn_core.Verify.report
(** {!verify_sampled_model} over the engine's node model. *)

val certify : ?symmetry:bool -> t -> string
(** Certificate generation through the cached solver: witnesses for
    size-[s] fault sets are spliced from their cached size-[s-1]
    predecessors whenever the local patch applies.  By default the
    instance's symmetry group is computed and, when nontrivial, the
    orbit-compressed v2 format is emitted
    ({!Gdpn_core.Certify.generate_orbits}); pass [~symmetry:false] to
    force the flat v1 enumeration. *)

val certify_model : t -> Gdpn_core.Fault_model.t -> string
(** Model-naming (v3) certificate through the cached model solver
    ({!Gdpn_core.Certify.generate_model}): witnesses splice from cached
    one-element-smaller predecessors whenever the model's local repair
    rule applies. *)

val certify_to : ?symmetry:bool -> t -> out_channel -> unit
(** Streamed (v4) certification through the cached solver: one compact
    binary record per witness written to the channel as it is found
    ({!Gdpn_core.Certify.generate_orbits_to} /
    {!Gdpn_core.Certify.generate_to}), so memory stays O(1) at fault-space
    sizes where the string-returning {!certify} cannot allocate its
    buffer.  Each record bumps [certify.records_streamed]. *)

val pp_stats : Format.formatter -> stats -> unit

(** Multicore verification: shard the fault-space enumeration over OCaml 5
    domains.  Reports are {e byte-identical} to the sequential
    {!Gdpn_core.Verify} paths: every fault set is tagged with its global
    rank in the sequential enumeration order, each domain keeps only its
    lowest-ranked failures, and the merge reproduces the sequential
    failure list, early-stop count and gave-up tally exactly. *)
module Parallel : sig
  val default_domains : unit -> int
  (** [GDPN_DOMAINS] when set to a positive integer, otherwise
      [Domain.recommended_domain_count () - 1], at least 1. *)

  val verify_exhaustive_model :
    ?budget:int ->
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    ?symmetry:Gdpn_graph.Auto.group ->
    ?splice:bool ->
    Gdpn_core.Fault_model.t ->
    Gdpn_core.Verify.report
  (** Check every fault set of size [0..k] over the model's universe, the
      model supplying the degraded instance and the local repair rule (its
      degraded-instance cache is mutex-protected, so all domains share one
      model).  The space is split into one shallow unit (the sets of size
      < min k 2) plus one DFS-subtree unit per size-[min k 2] prefix —
      units of comparable weight.  Units are drained through a
      work-stealing scheduler: each of the [domains] workers (the calling
      domain included) owns a contiguous span with its own atomic index,
      visits it in order — so its chain of solved prefix plans (see below)
      pops and re-grows by a few elements per unit — and steals from the
      other spans when its own runs dry.  Steal counts land in
      [engine.parallel_steals] and on each shard's trace span.

      [splice] (default true) gives every worker a per-branch stack of
      solved plans, repairing each fault set from its parent
      ({!Gdpn_core.Fault_model.splice}) before falling back to the full
      solver — the parallel form of [Verify.exhaustive_model]'s
      prefix-tree mode, with the same exactness argument (positives
      revalidated, negatives always from a full solve).

      Worker domains come from a process-wide persistent pool: they are
      spawned lazily on first use, parked on a condition variable between
      calls, and joined at process exit — repeated verifications pay no
      per-call [Domain.spawn].  When the enumeration divides out to fewer
      than [min_items_per_domain] items per domain (default 512), the call
      degrades to the serial path on the calling domain: same report, none
      of the fan-out cost — this is what keeps multi-domain requests on
      small instances from losing to the sequential verifier.  Pass
      [~min_items_per_domain:0] to force real sharding regardless of size
      (benchmarks, tests).

      [symmetry] is the {e node} group; with a nontrivial induced action
      on the universe, only orbit representatives are sharded — fewer but
      individually heavier work items, so the units are small contiguous
      chunks of the representative array; the per-domain chain splices
      each representative from its nearest solved ancestor.  Counts are
      orbit-expanded through prefix sums during the merge; the result
      equals the sequential [Verify.exhaustive_model ~symmetry] report
      field for field. *)

  val verify_exhaustive :
    ?budget:int ->
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    ?symmetry:Gdpn_graph.Auto.group ->
    ?splice:bool ->
    Gdpn_core.Instance.t ->
    Gdpn_core.Verify.report
  (** {!verify_exhaustive_model} over [Fault_model.node inst]. *)

  val verify_sampled_model :
    seed:int ->
    trials:int ->
    ?budget:int ->
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    Gdpn_core.Fault_model.t ->
    Gdpn_core.Verify.report
  (** Sampled verification over the model's universe: the full trial
      sequence is drawn up front from [seed] on one RNG (the sequential
      stream), then only the solving is sharded.
      [min_items_per_domain] as in {!verify_exhaustive_model}. *)

  val verify_sampled :
    seed:int ->
    trials:int ->
    ?budget:int ->
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    Gdpn_core.Instance.t ->
    Gdpn_core.Verify.report
  (** {!verify_sampled_model} over [Fault_model.node inst]. *)

  (** First-class verification tasks: one verification problem decomposed
      into a canonical array of serializable work units
      ({!Codec.unit_desc}).  The decomposition is a function of the
      instance and mode alone — never of the domain or process count — so
      a checkpoint written under one topology resumes under any other,
      and an out-of-process worker ({!Mp}) rebuilds the identical unit
      array from the spec on its command line. *)
  module Task : sig
    type t

    val exhaustive_model :
      ?budget:int ->
      ?symmetry:Gdpn_graph.Auto.group ->
      ?splice:bool ->
      Gdpn_core.Fault_model.t ->
      t
    (** The unit decomposition behind {!Parallel.verify_exhaustive_model}:
        one [Shallow] unit plus one [Rooted] DFS-subtree unit per
        size-[min k 2] prefix of the universe.  [symmetry] is the node
        group; with a nontrivial induced action, fixed-granularity [Span]
        chunks of the orbit-representative stream re-ordered into DFS
        preorder ({e orbit×splice fusion}: consecutive representatives
        share maximal prefixes, so each splices from its nearest solved
        ancestor, while ranks — and therefore counts and the merged
        report — remain the canonical size-major indices). *)

    val exhaustive :
      ?budget:int ->
      ?symmetry:Gdpn_graph.Auto.group ->
      ?splice:bool ->
      Gdpn_core.Instance.t ->
      t
    (** {!exhaustive_model} over [Fault_model.node inst]. *)

    val nunits : t -> int

    val min_rank : t -> int -> int
    (** Lower bound on the enumeration ranks unit [u] can emit — lets a
        scheduler or coordinator skip the whole unit once the early-stop
        cutoff drops below it. *)

    val header : t -> max_failures:int -> Checkpoint.header
    (** The checkpoint header pinning this task's spec. *)

    val processor :
      t ->
      record:(rank:int -> Gdpn_core.Verify.failure -> unit) ->
      cutoff:(unit -> int) ->
      int ->
      unit
    (** [processor t] builds per-domain solver and prefix-chain state
        once; the returned function processes one unit id per call,
        reporting rank-tagged failures through [record] and polling
        [cutoff] for the current early-stop bound.  Unit ids may arrive
        in any order (the chain re-aligns). *)

    val merge :
      t ->
      max_failures:int ->
      (int * Gdpn_core.Verify.failure) list list ->
      Gdpn_core.Verify.report
    (** Deterministic rank merge of per-source entry lists (per-domain
        buffers, per-unit checkpoint records, per-worker streams — any
        mix) into the canonical sequential report. *)
  end

  val run_task :
    ?max_failures:int ->
    ?domains:int ->
    ?min_items_per_domain:int ->
    ?checkpoint:Checkpoint.writer ->
    ?resumed:(int, Codec.unit_result) Hashtbl.t ->
    Task.t ->
    Gdpn_core.Verify.report
  (** Drain a task's units over the domain pool (the machinery behind
      {!verify_exhaustive_model}).  With [checkpoint], one
      {!Codec.unit_result} frame is appended the moment each unit drains
      (capped at
      [max_failures] entries — higher ranks can never reach a merged
      report); cutoff-skipped units are not recorded, since their
      justification may still be in flight.  With [resumed] (from
      {!Checkpoint.load}), recorded units are skipped, their entries seed
      the early-stop cutoff and join the final merge — the resumed report
      is byte-identical to an uninterrupted run's, under any domain or
      process count.  Bumps [verify.units_resumed]. *)
end
