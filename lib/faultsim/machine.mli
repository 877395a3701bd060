(** Network state: a solution-graph instance, its accumulated faults, and
    the currently embedded pipeline.

    Injecting a fault triggers reconfiguration through the engine layer
    ({!Gdpn_engine.Engine}): the plan for the predecessor fault mask is in
    the engine's cache from the previous remap, so most single faults are
    absorbed by an O(degree) splice, revisited masks are answered from the
    plan cache outright, and only genuinely new situations run the full
    strategy solver.  The machine records whether a pipeline could be
    re-embedded and how many remaps have happened.  A machine whose fault
    count exceeds [k] may legitimately lose its pipeline. *)

type t

type inject_result =
  | Remapped of Gdpn_core.Pipeline.t  (** new pipeline after the fault *)
  | Unchanged  (** node already faulty: no-op *)
  | Lost  (** no pipeline exists any more *)

val create :
  ?engine:Gdpn_engine.Engine.t ->
  ?local_repair:bool ->
  ?model:Gdpn_core.Fault_model.t ->
  Gdpn_core.Instance.t ->
  t
(** Fresh machine with no faults and the initial pipeline embedded.
    [engine] reuses an existing engine (and its warm plan cache) instead of
    building a fresh one — it must wrap the same instance.  [local_repair]
    (default true) enables the cached path in {!inject} (plan cache plus
    O(degree) splice); disable it to force full reconfiguration on every
    fault (the E14 ablation baseline).  [model] (built over [inst] —
    [Invalid_argument] otherwise; default [Fault_model.node inst]) fixes
    the fault universe: {!inject} takes universe indices (nodes, links,
    colour classes, neighborhoods — see {!Gdpn_core.Fault_model}) and
    reconfiguration goes through {!Gdpn_engine.Engine.solve_model}, so the
    model-keyed plan cache and splice path apply. *)

val instance : t -> Gdpn_core.Instance.t

val engine : t -> Gdpn_engine.Engine.t
(** The engine this machine solves through (shared when [create ?engine]
    was used). *)

val model : t -> Gdpn_core.Fault_model.t
(** The machine's fault model ({!Gdpn_core.Fault_model.node} unless
    {!create} was given another). *)

val fault_count : t -> int

(** Injected faults in injection order, as universe indices of the
    machine's model (node ids for the node model; render with
    {!Gdpn_core.Fault_model.describe}). *)
val faults : t -> int list
val remap_count : t -> int

val pipeline : t -> Gdpn_core.Pipeline.t option
(** Current embedding ([None] once lost). *)

val healthy_processor_count : t -> int
(** Processors not killed by a fault.  Only the node component of the
    fault set counts: link/class faults degrade connectivity without
    removing processors. *)

val used_processor_count : t -> int
(** Processors on the current pipeline — for the paper's constructions this
    equals {!healthy_processor_count} whenever at most [k] faults have been
    injected (graceful degradation). *)

val utilization : t -> float
(** [used / healthy]; 0 when the pipeline is lost, 1 when all healthy
    processors are in use. *)

val restart : t -> unit
(** Simulate an engine crash/restart ({!Gdpn_engine.Engine.crash_restart}):
    the shared engine drops its plan caches, then the machine re-embeds
    its current fault mask through the cold engine, rebuilding the cache.
    Not a fault — fault list and repair counters are untouched.  The new
    pipeline may differ from the old one but must exist whenever one
    existed before the crash. *)

val inject : t -> int -> inject_result
(** Mark a universe element of the machine's model (a node, for the node
    model) faulty and re-embed: first the O(degree) local patch
    ({!Gdpn_core.Repair}), then the full strategy solver. *)

val local_repair_count : t -> int
(** How many injections were absorbed without a full strategy-solver run —
    by a plan-cache hit or a local splice. *)

val plan_cache_hits : t -> int
(** Fault masks answered from the engine's plan cache (counts across every
    machine sharing this engine). *)

val solver_budget : int ref
(** Expansion budget handed to the reconfiguration solver (exposed so
    benchmarks can tighten it). *)
