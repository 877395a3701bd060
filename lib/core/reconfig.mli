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
    genuine witness. *)

type outcome =
  | Pipeline of Pipeline.t
  | No_pipeline  (** proven: no pipeline exists for this fault set *)
  | Gave_up  (** search budget exhausted before a conclusion *)

val solve :
  ?budget:int ->
  ?ctx:Gdpn_graph.Hamilton.ctx ->
  ?reference:bool ->
  Instance.t ->
  faults:Gdpn_graph.Bitset.t ->
  outcome
(** Strategy-dispatching solver.  [budget] bounds backtracking expansions
    in the generic solver (default 2_000_000).  [ctx] is a reusable search
    context ({!make_ctx}); passing one makes repeated solves reuse the
    backtracker's scratch state instead of reallocating it.  Results are
    identical with or without a ctx.  [reference] (default [false]) routes
    every spanning-path search through the retained pre-bitset-row
    backtracker ({!Gdpn_graph.Hamilton.Reference}) — identical outcomes
    and expansion counts by contract; used by the kernel-equivalence
    crosscheck and oracle tests. *)

val make_ctx : Instance.t -> Gdpn_graph.Hamilton.ctx
(** A search context sized for this instance, for use with {!solve} /
    {!solve_generic}.  Not domain-safe: allocate one per domain. *)

val cached_ctx : Instance.t -> Gdpn_graph.Hamilton.ctx
(** A search context for this instance's order from a per-domain cache
    (domain-local storage, keyed on graph order).  Safe wherever
    {!make_ctx} per domain is: each domain sees its own ctx, and
    persistent worker domains amortise the allocation across calls. *)

val solve_list : ?budget:int -> Instance.t -> faults:int list -> outcome
(** Convenience wrapper taking the fault set as a list of node ids. *)

val solve_generic :
  ?budget:int ->
  ?expansions:int ref ->
  ?ctx:Gdpn_graph.Hamilton.ctx ->
  ?reference:bool ->
  Instance.t ->
  faults:Gdpn_graph.Bitset.t ->
  outcome
(** The generic solver regardless of strategy (the baseline that
    EXPERIMENTS.md E16 holds the constructive solvers against).
    [expansions] accumulates the backtracker's node-expansion count — the
    deterministic work measure {!Attack} maximises.  [reference] as in
    {!solve}. *)

val pp_outcome : Format.formatter -> outcome -> unit
