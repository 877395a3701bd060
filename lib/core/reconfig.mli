(** Reconfiguration: given a fault set, produce a pipeline through every
    healthy processor (or report that none exists).

    Three solver strategies, selected by {!Instance.strategy}:

    - {b Processor-clique scan} (G(1,k), G(2,k)) — the constructive content
      of the Lemma 3.7 / 3.9 proofs.  Because the processors form a clique,
      a pipeline exists iff there are healthy processors [c ≠ d] with a
      healthy input terminal at [c] and a healthy output terminal at [d]
      (or a single healthy processor with both); any ordering of the other
      healthy processors completes the path.  O(k²) worst case and
      complete.

    - {b Extension recursion} (Lemma 3.6 proof, literally) — solve the inner
      instance, then weave the healthy relabelled terminals and a fresh
      terminal around the inner pipeline; Case 1 / Case 2 of the proof
      correspond to whether a fresh input terminal is faulty.

    - {b Generic spanning-path search} — bounded backtracking
      ({!Gdpn_graph.Hamilton}); used for G(3,k), the special solutions, the
      §3.4 circulant family, merged instances, and as a fallback.

    Every solver's output is revalidated against the paper's pipeline
    definition before being returned, so a [Pipeline p] outcome is always a
    genuine witness.

    {b One budget.}  The generic search gives up after 2,000,000 node
    expansions, and the solve then reports [Gave_up].  That bound is a
    constant of this module: every verdict the repository reports
    (verification, certificates, plan stores, the engine, the daemon)
    comes from {!solve} under it.  The §3.4 ring searches cap themselves
    at 100,000 and fall back to the generic search, so they decide no
    verdict; only {!solve_generic} takes another bound, for the
    adversary's scoring cap. *)

type outcome =
  | Pipeline of Pipeline.t
  | No_pipeline  (** proven: no pipeline exists for this fault set *)
  | Gave_up  (** search budget exhausted before a conclusion *)

val solve :
  ?ctx:Gdpn_graph.Hamilton.ctx ->
  Instance.t ->
  faults:Gdpn_graph.Bitset.t ->
  outcome
(** Strategy-dispatching solver, under the one budget.  Every
    spanning-path search runs on a per-domain scratch cache keyed on graph
    order (domain-local storage), so repeated solves on one domain reuse
    the backtracker's scratch instead of reallocating it.  [ctx] is
    accepted and unused: it predates the cache, and results never
    depended on it. *)

val make_ctx : Instance.t -> Gdpn_graph.Hamilton.ctx
(** A search context sized for this instance, the [ctx] {!solve}
    accepts. *)

val solve_list : Instance.t -> faults:int list -> outcome
(** Convenience wrapper taking the fault set as a list of node ids. *)

val solve_generic :
  ?budget:int ->
  ?expansions:int ref ->
  Instance.t ->
  faults:Gdpn_graph.Bitset.t ->
  outcome
(** The generic solver regardless of strategy (the baseline that
    EXPERIMENTS.md E16 holds the constructive solvers against).  [budget]
    (default: the one budget) caps its search; [expansions] accumulates
    the backtracker's node-expansion count — the deterministic work
    measure {!Attack} maximises. *)
