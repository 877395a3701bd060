(** Generalized fault models: fault universes beyond single nodes.

    The paper verifies node faults only; the machinery (subset enumeration,
    orbit reduction, splice-first prefix trees, plan caching) never needed
    that restriction.  A {e fault model} fixes a universe of fault
    {e elements} — nodes, links, colour classes of links sharing a physical
    resource (Wang & Desmedt's homogeneous model), or closed neighborhoods
    (a localised physical event taking a node and all its neighbours) —
    with a canonical integer indexing, so a fault set is still a
    {!Gdpn_graph.Bitset.t}, now over the model's universe instead of the
    node set.

    Semantics of a fault set: its elements decompose into a set of dead
    nodes and a set of dead links.  The instance {e gracefully tolerates}
    the set when the link-degraded instance (dead links removed) admits a
    pipeline through every healthy processor.  For the node model this is
    exactly the paper's definition: there is no dead link, so every entry
    point runs the plain solver, validator and patch on the instance
    itself.  That is why verification, the engine, the machine and the
    adversary each have one body over a model — their node-fault entry
    points pass {!node}.

    Link-degraded instances are cached per dead-link set (the hot loops —
    exhaustive verification, orbit enumeration, the Hayes fallback — keep
    re-deriving the same handful of degraded graphs); the cache is
    mutex-protected so parallel verification domains can share one model. *)

type elt =
  | Node of int  (** the node dies *)
  | Link of int * int
      (** the edge [{u, v}] ([u < v] canonical) dies; both endpoints
          stay healthy and must still be served by the pipeline *)
  | Color of int
      (** colour class [c]: every link incident to node [c] dies at once
          (a NIC/port failure — the links share node [c]'s physical
          interface), node [c] itself stays healthy *)
  | Neighborhood of int
      (** the closed neighborhood [N[v]]: [v] and all its graph
          neighbours die (a localised physical event) *)

type t
(** A fault model over one instance: the universe, its indexing, and the
    degraded-instance cache. *)

val node : Instance.t -> t
(** The paper's model: universe element [i] is [Node i]; a fault mask is
    a node mask.  Solve, validate and splice run the plain node-fault
    calls on the instance itself, with no degraded-instance lookup. *)

val mixed : Instance.t -> t
(** Nodes then links: element [i < order] is [Node i]; element
    [order + j] is the [j]-th edge in {!Gdpn_graph.Graph.edges} order. *)

val colored : Instance.t -> t
(** One colour class per node: element [c] is [Color c], the set of links
    incident to node [c]. *)

val neighbor : Instance.t -> t
(** One closed neighborhood per node: element [v] is [Neighborhood v]. *)

val of_name : Instance.t -> string -> t option
(** ["node"], ["mixed"], ["colored"], ["neighbor"]. *)

val instance : t -> Instance.t

val name : t -> string
(** The model's canonical name (accepted back by {!of_name}); certificates
    and the CLI key on it. *)

val id : t -> int
(** Small dense model id ([node] = 0): the engine layer keys its plan
    caches on [(id, mask)]. *)

val size : t -> int
(** Universe size: fault masks for this model live over [0..size-1]. *)

val max_faults : t -> int
(** The fault budget [k] of the underlying instance: verification
    enumerates universe subsets of size [0..max_faults]. *)

val is_node : t -> bool

val element : t -> int -> elt
(** The element at a universe index.  Raises [Invalid_argument] when out
    of range. *)

val index_of : t -> elt -> int option
(** Inverse of {!element} ([Link] pairs are normalised first). *)

val elt_to_string : elt -> string
(** Canonical element syntax: node ["3"], link ["2-5"], colour class
    ["c4"], neighborhood ["n7"].  Used by {!describe} and [--faults]. *)

val parse_elt : string -> elt option

val describe : t -> int list -> string
(** Universe indices rendered as ["{3,7,2-5}"]. *)

val decompose : t -> Gdpn_graph.Bitset.t -> Gdpn_graph.Bitset.t * (int * int) list
(** [decompose t mask] is the fault set's meaning: the dead-node mask
    (over the instance's node universe, freshly allocated) and the sorted
    list of dead links. *)

val degrade_links : Instance.t -> links:(int * int) list -> Instance.t
(** The instance with the given edges removed (reconfiguration strategy
    reset to the generic solver — structural shortcuts assume the full
    edge set).  Unknown edges raise [Invalid_argument].  Uncached; the
    model's own solve path caches per dead-link set. *)

val effective : t -> Gdpn_graph.Bitset.t -> Instance.t * Gdpn_graph.Bitset.t
(** [effective t mask] is the link-degraded instance (from the model's
    cache) and the dead-node mask: the pair every solve and validation
    runs against.  For the node model this is [(instance t, mask)] with
    the caller's mask returned physically — no allocation. *)

val solve : t -> faults:Gdpn_graph.Bitset.t -> Reconfig.outcome
(** Solve the fault set through {!effective}, under {!Reconfig}'s one
    budget: the solve every verification runs.  For the node model this
    is exactly {!Reconfig.solve}. *)

val validate :
  t -> faults:Gdpn_graph.Bitset.t -> int list -> (Pipeline.t, string) result
(** Validate a candidate pipeline against the degraded instance — the
    witness check certificates and verification trust. *)

val splice :
  t ->
  current:Pipeline.t ->
  faults:Gdpn_graph.Bitset.t ->
  failed:int ->
  [ `Unchanged of Pipeline.t | `Spliced of Pipeline.t ] option
(** The model-aware local repair behind prefix-tree verification:
    [current] is a valid pipeline for [faults - {failed}] ([failed] a
    universe index).  A [Node] element patches through
    {!Repair.patch} on the degraded instance; a [Link]/[Color]/
    [Neighborhood] element keeps the parent pipeline when it revalidates
    unchanged (the dead links miss the pipeline, the dead nodes were off
    it) and otherwise reports [None] — no search is ever run, and every
    positive is revalidated, so the splice-first exactness argument
    carries over unchanged. *)

val probe :
  budget:int -> t -> Gdpn_graph.Bitset.t -> int * [ `Found | `None | `Gave_up ]
(** Generic-solver expansions for the fault set (the deterministic cost
    measure {!Attack} maximises), measured on the degraded instance under
    the caller's [budget]. *)

val induced_symmetry : t -> Gdpn_graph.Auto.group -> Gdpn_graph.Auto.group
(** The action of the instance's node symmetry group on the universe
    indices: a node permutation maps [Node v] to [Node (p v)], [Link
    {u,v}] to [Link {p u, p v}], and colour classes / neighborhoods along
    [p] (their defining node moves).  Solvability-preserving node
    automorphisms therefore preserve generalized fault-set solvability,
    so orbit-reduced enumeration stays sound.  For every model except
    [mixed] the universe indexing coincides with the node indexing and
    the group is returned unchanged; for [mixed] each generator is
    extended over the link block (falling back to the trivial group if a
    generator fails to act, which cannot happen for genuine graph
    automorphisms).  Raises [Invalid_argument] if the group's degree is
    not the instance order. *)
