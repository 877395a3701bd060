(** k-graceful-degradability verification.

    [GD(G, k)] quantifies over {e every} fault set of size at most [k] —
    and, because a pipeline must use all healthy processors, tolerance is
    {e not} monotone in the fault set: exhaustive mode therefore enumerates
    every subset of every size [0..k], not just the maximal ones.

    There is one enumeration core, {!Task}: a verification problem cut
    into a canonical array of work units, each checked by a processor
    that reports rank-tagged failures.  {!exhaustive_model} and
    {!sampled_model} build a task and drain it on the calling domain;
    [Gdpn_engine.Engine.Parallel] drains the same units over a domain
    pool, optionally recording them in a checkpoint file, and every
    drain merges into the same canonical report.

    Every job has one body, written over a {!Fault_model.t}: the [_model]
    entry points below.  The node-fault entry points ({!exhaustive},
    {!sampled}, {!check_fault_set}) are wrappers that pass
    [Fault_model.node inst], whose universe is the node set, so their
    fault sets are plain node ids. *)

type failure = {
  faults : int list;  (** the offending fault set *)
  reason : string;  (** why it failed (no pipeline / solver gave up) *)
  orbit : int;
      (** number of fault sets this failure stands for: 1 in plain modes;
          the orbit size under the symmetry group in orbit-reduced mode
          (then [faults] is the orbit's min-lex representative) *)
}

type report = {
  fault_sets_checked : int;
      (** fault sets covered, orbit-expanded in symmetry mode *)
  solver_calls : int;
      (** solver invocations actually made; equals [fault_sets_checked]
          except in orbit-reduced mode, where it counts representatives *)
  failures : failure list;
      (** at most [max_failures], in canonical order: sizes ascending,
          lexicographic within a size (orbit representatives in that
          order; sampled sets in trial order) *)
  gave_up : int;  (** fault sets where the solver exhausted its budget *)
}

type witness = {
  w_rank : int;  (** the item's rank, as a failure's *)
  w_set : int array;  (** sorted universe indices; a sink must not mutate it *)
  w_orbit : int;  (** fault sets it stands for: its orbit size, else 1 *)
  w_outcome : Reconfig.outcome;
      (** a revalidated [Pipeline], [No_pipeline], or [Gave_up] (also for
          a witness that failed revalidation, which decides nothing) *)
}
(** One checked item, as a {!Task} witness sink receives it. *)

val exhaustive :
  ?max_failures:int ->
  ?universe:int list ->
  ?symmetry:Gdpn_graph.Auto.group ->
  ?splice:bool ->
  Instance.t ->
  report
(** {!exhaustive_model} over [Fault_model.node inst].
    Check every fault set of size [0..k] drawn from [universe] (default:
    all nodes, terminals included; pass [Instance.processors t] for the
    merged-terminal model where I/O devices are fault-free).
    [max_failures] (default 5) bounds the retained counterexamples;
    enumeration stops early once reached.

    [symmetry] (typically [Instance.symmetry inst]) switches to
    orbit-reduced enumeration: only one representative per orbit of the
    group is solved, [fault_sets_checked] and [gave_up] are scaled by
    orbit sizes, and failures carry their orbit size.  The verdict
    ({!is_k_gd}) is unchanged because group elements preserve fault-set
    solvability.  A trivial group degrades to the plain path.  Raises
    [Invalid_argument] if the group's degree differs from the instance
    order or [universe] is not group-invariant.

    [splice] (default [true]) walks each work unit as a prefix tree,
    keeping a chain of solved prefix plans: each child set is first
    patched from its parent's pipeline ({!Repair.patch}, which
    revalidates — a positive verdict is always genuine) and only solved
    from scratch when the splice fails.  Negatives always come from a
    full solve, so the report is identical to [~splice:false] field for
    field.  (The one theoretical exception: every solve stops at
    {!Reconfig}'s budget of 2,000,000 expansions, so a splice can
    succeed where that search would have given up; [gdp verify
    --crosscheck] compares the two.)  In orbit-reduced mode the
    representatives, taken in DFS preorder, share prefixes on the chain,
    and each is patched from its nearest solved ancestor. *)

val expanded_failure_sets :
  symmetry:Gdpn_graph.Auto.group -> report -> int list list
(** All concrete fault sets the report's failures stand for: each failure
    orbit-expanded under [symmetry], sorted.  With the trivial group this
    is just the failures' fault sets, so it is safe to apply uniformly
    when cross-checking orbit-reduced runs against plain ones. *)

val sampled :
  rng:Random.State.t ->
  trials:int ->
  ?max_failures:int ->
  Instance.t ->
  report
(** {!sampled_model} over [Fault_model.node inst].
    Check [trials] fault sets drawn uniformly (size uniform on [0..k],
    contents uniform for that size).  Callers must thread an explicitly
    chosen seed into [rng] — deriving it from instance parameters silently
    correlates the fault-sample sequences of same-order instances. *)

val is_k_gd : report -> bool
(** True when no failures occurred and the solver never gave up, i.e. the
    checked fault space is fully tolerated. *)

val breaking_fault_set : Instance.t -> int list option
(** The lexicographically-first smallest fault set that defeats the
    instance, searching sizes [0..k + 1]: the first failure of the plain
    {!Task} over those sizes, drained with a cap of one.  Its size minus
    one is the exact structural fault tolerance (the search is
    exponential in it).  For a node-optimal k-GD graph the answer always
    has size exactly [k+1] (e.g. all [k+1] input terminals): the
    tolerance is [k], and the tests assert both directions. *)

val check_fault_set : Instance.t -> int list -> (unit, string) result
(** Check one node fault set: solve and revalidate the witness
    ({!check_model_set} over [Fault_model.node inst]). *)

(** Rank-tagged bounded failure buffer: keeps the [cap] lowest-ranked
    failures seen, where a rank is the fault set's position in the
    canonical enumeration order ({!Gdpn_graph.Combinat.rank_of_subset}).
    Each drain (a domain, a checkpointed unit) feeds
    one, and {!Task.merge} reconstructs the canonical report from their
    contents. *)
module Topk : sig
  type t

  val create : int -> t
  (** [create cap] holds at most [max 1 cap] entries.  Storage grows
      geometrically as entries arrive, so a large [cap] costs nothing
      until it fills. *)

  val insert : t -> rank:int -> failure -> unit
  val full : t -> bool

  val max_rank : t -> int
  (** Highest retained rank; only meaningful when {!full}. *)

  val to_list : t -> (int * failure) list
  (** Retained entries, rank-ascending. *)
end

val pp_report : Format.formatter -> report -> unit
(** The one-line [checked ...] summary, fault sets as node ids. *)

val pp_report_model : Fault_model.t -> Format.formatter -> report -> unit
(** {!pp_report} with fault sets rendered by {!Fault_model.describe}; for
    the node model the two print the same bytes. *)

(** {1 Fault-model entry points}

    The single bodies behind the node entry points above: fault sets are
    subsets of the model's universe ({!Fault_model.size} elements), so
    [failure.faults] holds universe {e indices} (render with
    {!Fault_model.describe} or {!pp_report_model}).  Plain and
    orbit-reduced units, with or without splicing, run over the universe,
    and {!Fault_model} supplies the degraded instance and the local
    repair rule. *)

val exhaustive_model :
  ?max_failures:int ->
  ?universe:int list ->
  ?symmetry:Gdpn_graph.Auto.group ->
  ?splice:bool ->
  Fault_model.t ->
  report
(** {!exhaustive}'s body, over the model's universe.  [universe] is a
    list of universe indices (default: the whole universe).  [symmetry] is
    the {e node} symmetry group (typically
    [Instance.symmetry (Fault_model.instance m)]); its action on the
    universe is derived via {!Fault_model.induced_symmetry}, so
    orbit-reduced enumeration works for links, colour classes and
    neighborhoods exactly as for nodes.  Each set is solved by
    {!Fault_model.solve} and its witness revalidated against the
    degraded instance. *)

val sampled_model :
  rng:Random.State.t ->
  trials:int ->
  ?max_failures:int ->
  Fault_model.t ->
  report
(** {!sampled}'s body, over the model's universe.  The whole trial
    sequence is drawn from [rng] before any set is checked. *)

val check_model_set : Fault_model.t -> int list -> (Pipeline.t, string) result
(** Check one explicit fault set given as universe indices, keeping the
    witness pipeline (the CLI's [--faults] debugging aid).  Raises
    [Invalid_argument] on an out-of-range index. *)

(** {1 Work units} *)

(** One verification problem cut into a canonical array of work units.
    The cut is a function of the model and mode alone — never of the
    domain count — so a unit reports the same failures
    wherever it runs, and a checkpoint written under one topology
    resumes under any other.

    - Plain units: one unit for the sets of size [< min k 2], then one
      DFS subtree per size-[min k 2] prefix of the universe; a later
      unit starts its chain from the singleton outcome unit 0 reported.
    - Orbit units: fixed-size spans of the orbit representatives in DFS
      preorder ({e orbit×splice fusion}: consecutive representatives
      share prefixes, so each splices from its nearest solved ancestor).
    - Sampled units: fixed-size spans of the trial sequence.

    Every failure carries its rank in the canonical order (the subset's
    size-major rank, the representative's index, the trial index), so
    {!merge} rebuilds the canonical report from any drain order.  An
    optional witness sink sees every checked item, uncapped, in drain
    order: [Certify.write] streams them, [Engine.compile_plans] stores
    them. *)
module Task : sig
  type t

  type spec = {
    s_model : Fault_model.t;
    s_orbit : bool;  (** orbit-reduced *)
    s_splice : bool;  (** splice-first chains *)
    s_universe : int list option;  (** the [universe] restriction *)
    s_max_size : int;  (** largest fault-set size enumerated *)
  }
  (** What an exhaustive task enumerates: everything a checkpoint header
      must pin besides the unit count. *)

  val exhaustive_model :
    ?universe:int list ->
    ?symmetry:Gdpn_graph.Auto.group ->
    ?splice:bool ->
    ?max_size:int ->
    Fault_model.t ->
    t
  (** The units behind {!exhaustive_model}, with the same arguments, over
      the sets of size [0..max_size] (default
      {!Fault_model.max_faults}; it may exceed it). *)

  val exhaustive :
    ?universe:int list ->
    ?symmetry:Gdpn_graph.Auto.group ->
    ?splice:bool ->
    ?max_size:int ->
    Instance.t ->
    t
  (** {!exhaustive_model} over [Fault_model.node inst]. *)

  val sampled_model : rng:Random.State.t -> trials:int -> Fault_model.t -> t
  (** The units behind {!sampled_model}; the trials are drawn here. *)

  val nunits : t -> int

  val min_rank : t -> int -> int
  (** Lower bound on the ranks unit [u] can emit — a scheduler skips the
      whole unit once the early-stop cutoff drops below it. *)

  val items : t -> int
  (** Fault sets (orbit representatives, trials) a full drain checks. *)

  val spec : t -> spec option
  (** [None] for sampled tasks, whose trials come from an RNG state. *)

  val processor :
    t ->
    ?witness:(witness -> unit) ->
    record:(rank:int -> failure -> unit) ->
    cutoff:(unit -> int) ->
    int ->
    unit
  (** [processor t] builds one domain's solver chain; the result checks
      one unit id per call, reporting rank-tagged failures through
      [record] and skipping sets ranked above [cutoff ()].  [witness]
      receives every checked item of the unit, in drain order, each
      negative one just before [record] does.  Unit ids may arrive in
      any order (the chain re-aligns). *)

  val drain :
    ?witness:(witness -> unit) ->
    t ->
    max_failures:int ->
    next:(unit -> int option) ->
    cutoff:(unit -> int) ->
    tighten:(int -> unit) ->
    on_unit:(int -> (int * failure) list -> unit) ->
    (int * failure) list
  (** One domain's drain: process the unit ids [next] hands out until it
      returns [None], skipping units whose {!min_rank} is above
      [cutoff ()], and keep the lowest-ranked [max_failures] failures,
      passing their highest rank to [tighten] whenever the buffer is
      full.  [on_unit u entries] receives each processed unit's own
      capped failures (a checkpoint record), after [witness] has seen
      the unit's items.  Returns the kept failures,
      rank-ascending.  {!exhaustive_model} drains every unit in order on
      the calling domain; [Engine.Parallel.run_task] runs one drain per
      domain. *)

  val merge : t -> max_failures:int -> (int * failure) list list -> report
  (** Deterministic rank merge of any mix of sources — drains,
      checkpoint records — into the canonical report:
      the lowest-ranked [max 1 max_failures] failures in rank order,
      with the counts of an enumeration that stopped at the last of them
      when the cap was reached. *)
end
