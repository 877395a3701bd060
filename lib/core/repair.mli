(** Incremental pipeline repair.

    A real-time stream cannot always afford a full reconfiguration on every
    fault.  When a single node fails, the current embedding can often be
    patched locally in O(degree) time:

    - a fault off the pipeline (an unused terminal) changes nothing;
    - an internal processor whose two pipeline neighbours are adjacent is
      spliced out;
    - a failed end processor is dropped when its successor can reach a
      healthy terminal of the right kind;
    - a failed endpoint terminal is swapped for another healthy terminal on
      the same end processor.

    Each splice preserves the pipeline invariant (the failed processor was
    the only node removed from the healthy set, and it was removed from the
    path).  When no local rule applies, [repair] falls back to the full
    strategy solver.  The splice rules fire on the large majority of
    single faults in the paper's constructions (see the repair tests and
    EXPERIMENTS.md E14). *)

type result =
  | Unchanged of Pipeline.t
      (** fault did not touch the pipeline; embedding kept *)
  | Spliced of Pipeline.t  (** local patch, no search *)
  | Resolved of Pipeline.t  (** full reconfiguration was needed *)
  | Lost  (** no pipeline exists (only possible beyond spec) *)

val repair :
  ?budget:int ->
  Instance.t ->
  current:Pipeline.t ->
  faults:Gdpn_graph.Bitset.t ->
  failed:int ->
  result
(** [repair inst ~current ~faults ~failed] patches [current] after node
    [failed] dies.  [faults] must already include [failed] and every
    earlier fault; [current] must be a valid pipeline for
    [faults - {failed}].  The returned pipeline is always revalidated. *)

val is_local : result -> bool
(** True for [Unchanged] and [Spliced] — the no-search outcomes. *)

val patch :
  Instance.t ->
  current:Pipeline.t ->
  faults:Gdpn_graph.Bitset.t ->
  failed:int ->
  [ `Unchanged of Pipeline.t | `Spliced of Pipeline.t ] option
(** The local-only part of {!repair}: [Some] for the no-search outcomes,
    [None] when only a full reconfiguration can answer.  Never runs the
    solver; the returned pipeline is always revalidated.  The engine layer
    uses this to derive plans from cached predecessors. *)
