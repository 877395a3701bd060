(** k-graceful-degradability verification.

    [GD(G, k)] quantifies over {e every} fault set of size at most [k] —
    and, because a pipeline must use all healthy processors, tolerance is
    {e not} monotone in the fault set: exhaustive mode therefore enumerates
    every subset of every size [0..k], not just the maximal ones.

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
  failures : failure list;  (** at most [max_failures], in discovery order *)
  gave_up : int;  (** fault sets where the solver exhausted its budget *)
}

val exhaustive :
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
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

    [splice] (default [true]) enumerates the fault space as a prefix
    tree, keeping a per-branch stack of solved plans: each child set is
    first patched from its parent's pipeline ({!Repair.patch}, which
    revalidates — a positive verdict is always genuine) and only solved
    from scratch when the splice fails.  Negatives always come from a
    full solve, so the report is identical to [~splice:false] field for
    field (the one theoretical exception: with a finite [budget], a
    splice can succeed where the budgeted solver would have given up —
    the default budget is unbounded, and [gdp verify --crosscheck]
    guards budgeted runs).  In orbit-reduced mode the representatives'
    shared prefixes form the chain, and each representative is patched
    from its nearest solved ancestor. *)

val expanded_failure_sets :
  symmetry:Gdpn_graph.Auto.group -> report -> int list list
(** All concrete fault sets the report's failures stand for: each failure
    orbit-expanded under [symmetry], sorted.  With the trivial group this
    is just the failures' fault sets, so it is safe to apply uniformly
    when cross-checking orbit-reduced runs against plain ones. *)

val sampled :
  rng:Random.State.t ->
  trials:int ->
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
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

val breaking_fault_set :
  ?budget:int -> ?max_size:int -> Instance.t -> int list option
(** The lexicographically-first smallest fault set that defeats the
    instance, searching sizes [0..max_size] (default [k + 1]).  For a
    node-optimal k-GD graph the answer always has size exactly [k+1]
    (e.g. all [k+1] input terminals), which {!tolerance} exploits. *)

val tolerance : ?budget:int -> ?cap:int -> Instance.t -> int
(** The exact structural fault tolerance: the largest [t] such that every
    fault set of size at most [t] is tolerated, determined by exhaustive
    search up to [cap] (default [k + 1]; the search is exponential in the
    answer).  For the paper's constructions this equals [k]: node-optimal
    graphs cannot tolerate [k+1] faults, and the tests assert both
    directions. *)

val check_fault_set : ?budget:int -> Instance.t -> int list -> (unit, string) result
(** Check one node fault set: solve and revalidate the witness
    ({!check_model_set} over [Fault_model.node inst]). *)

(** Rank-tagged bounded failure buffer: keeps the [cap] lowest-ranked
    failures seen, where a rank is the fault set's position in the
    canonical enumeration order ({!Gdpn_graph.Combinat.rank_of_subset}).
    Out-of-order enumerators (the DFS prefix walk, parallel shards) feed
    one of these per source and reconstruct the sequential report with
    {!merge_tagged}. *)
module Topk : sig
  type t

  val create : int -> t
  (** [create cap] holds at most [max 1 cap] entries. *)

  val insert : t -> rank:int -> failure -> unit
  val full : t -> bool

  val max_rank : t -> int
  (** Highest retained rank; only meaningful when {!full}. *)

  val to_list : t -> (int * failure) list
  (** Retained entries, rank-ascending. *)
end

val merge_tagged :
  max_failures:int ->
  counts:(int option -> int * int) ->
  (int * failure) list list ->
  report
(** Merge rank-tagged failures from any number of sources into the report
    the sequential enumeration would have produced: the lowest-ranked
    [max 1 max_failures] failures are kept in rank order, and
    [counts stop] maps the early-stop rank ([None] when enumeration ran
    to completion) to [(fault_sets_checked, solver_calls)] — the
    indirection lets orbit-reduced callers translate representative ranks
    into orbit-expanded totals. *)

val pp_report : Format.formatter -> report -> unit
(** The one-line [checked ...] summary, fault sets as node ids. *)

val pp_report_model : Fault_model.t -> Format.formatter -> report -> unit
(** {!pp_report} with fault sets rendered by {!Fault_model.describe}; for
    the node model the two print the same bytes. *)

(** {1 Fault-model entry points}

    The single bodies behind the node entry points above: fault sets are
    subsets of the model's universe ({!Fault_model.size} elements), so
    [failure.faults] holds universe {e indices} (render with
    {!Fault_model.describe} or {!pp_report_model}).  All four strategies
    — plain, splice-first DFS, orbit-reduced from scratch, orbit-reduced
    with splicing — run over the universe, and {!Fault_model} supplies the
    degraded instance and the local repair rule. *)

val exhaustive_model :
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
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
    neighborhoods exactly as for nodes.  [solve] overrides the per-set
    solver (the engine passes its context-reusing, cache-aware solver);
    witnesses are revalidated against the degraded instance regardless. *)

val sampled_model :
  rng:Random.State.t ->
  trials:int ->
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  ?max_failures:int ->
  Fault_model.t ->
  report
(** {!sampled}'s body, over the model's universe. *)

val check_model_set :
  ?budget:int -> Fault_model.t -> int list -> (Pipeline.t, string) result
(** Check one explicit fault set given as universe indices, keeping the
    witness pipeline (the CLI's [--faults] debugging aid).  Raises
    [Invalid_argument] on an out-of-range index. *)

val solve_checked_model :
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  Fault_model.t ->
  Gdpn_graph.Bitset.t ->
  (Pipeline.t, string) result
(** Solve through {!Fault_model.solve} (or the [solve] override, as the
    engine passes its context-reusing solver) and revalidate the witness
    on the degraded instance, keeping it for reuse as a splice parent.  A
    dishonest override cannot make verification pass.  Does {e not}
    touch the [verify.solver_calls] counter: prefix-tree callers settle
    it against the merged report instead. *)

val check_mask_model :
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  Fault_model.t ->
  Gdpn_graph.Bitset.t ->
  (unit, string) result
(** {!solve_checked_model} without the witness, counted in
    [verify.solver_calls]. *)

val splice_checked_model :
  ?budget:int ->
  ?solve:(faults:Gdpn_graph.Bitset.t -> Reconfig.outcome) ->
  ?reported:bool ->
  Fault_model.t ->
  parent:(Pipeline.t, string) result ->
  mask:Gdpn_graph.Bitset.t ->
  failed:int ->
  (Pipeline.t, string) result
(** Splice-first check of [mask] = parent's faults ∪ {[failed]}
    ([failed] a universe index): repair the parent's pipeline through
    {!Fault_model.splice} (revalidated, so positives are genuine), full
    solve on splice failure or when the parent has no pipeline (tolerance
    is not monotone).  Negatives always come from a full solve, so failure
    reasons match {!check_mask_model} exactly.  [reported] (default
    [true]) selects the metric cells: reported checks feed
    [verify.splices]/[verify.splice_failures], scaffold pushes feed
    [verify.scaffold_solves]. *)
