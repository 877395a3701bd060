(** Spanning-path search: find a path visiting {e every} node of an alive set
    exactly once, starting in a given start set and ending in a given end
    set.  This is the computational core of pipeline reconfiguration — a
    pipeline is exactly a spanning path of the healthy processors whose
    endpoints see a healthy input and output terminal.

    The search is a depth-first backtracker with three sound prunings:
    connectivity of the unvisited region from the current head, dead-end
    counting (an unvisited node with no unvisited neighbours is only legal as
    the unique final node), and forced-endpoint counting (an unvisited node
    with one unvisited neighbour, not adjacent to the head, must be the final
    node and must lie in the end set).  Neighbour expansion follows
    Warnsdorff's rule (fewest onward moves first), which makes the search
    effectively linear on the dense graphs produced by the paper's
    constructions. *)

type result =
  | Path of int list
      (** A spanning path, in visit order: head is in the start set, last
          node is in the end set, every alive node appears exactly once. *)
  | No_path  (** Proven absence: the search space was exhausted. *)
  | Budget_exceeded  (** Expansion budget ran out before a conclusion. *)

type ctx
(** Reusable search state: the [remaining]/[seen]/candidate bitsets and the
    per-node degree scratch, preallocated for one graph order.  A ctx makes
    repeated solves allocation-free in the solver's hot state; it holds no
    result, so it can be reused across arbitrary [alive]/[starts]/[ends]
    combinations of the same order.  Not domain-safe: use one ctx per
    domain. *)

val make_ctx : int -> ctx
(** [make_ctx order] preallocates scratch for graphs of the given order. *)

val solve_into :
  ?budget:int ->
  ?expansions:int ref ->
  ctx ->
  Graph.t ->
  alive:Bitset.t ->
  starts:Bitset.t ->
  ends:Bitset.t ->
  result
(** {!spanning_path} through a caller-owned ctx: identical results, no
    scratch allocation.  Raises [Invalid_argument] when the ctx capacity
    differs from the graph order. *)

val spanning_path :
  ?budget:int ->
  ?expansions:int ref ->
  Graph.t ->
  alive:Bitset.t ->
  starts:Bitset.t ->
  ends:Bitset.t ->
  result
(** [spanning_path g ~alive ~starts ~ends] searches for a spanning path of
    the subgraph induced by [alive] whose first node is in [starts] and last
    node is in [ends] (both intersected with [alive]; a single-node path
    needs its node in both).  [budget] bounds the number of node expansions
    (default: unlimited).  When [expansions] is given, the number of node
    expansions performed is added to it — the deterministic work measure
    used by the adversarial fault-set search. *)

val is_spanning_path :
  Graph.t -> alive:Bitset.t -> starts:Bitset.t -> ends:Bitset.t -> int list -> bool
(** Independent validity check of a candidate witness (used by the test
    suite to validate solver output without trusting the solver). *)
