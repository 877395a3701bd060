(** Simple undirected graphs over nodes [0..order-1].

    A graph is assembled through a mutable {!builder} and then frozen into an
    immutable adjacency structure ({!t}) whose neighbour lists are sorted
    arrays.  All solver code works on frozen graphs; transient node removal
    (fault sets) is expressed with {!Bitset.t} "alive" masks rather than by
    rebuilding graphs. *)

type t
(** A frozen simple undirected graph. *)

type builder

val builder : int -> builder
(** [builder order] is an empty builder over nodes [0..order-1]. *)

val add_edge : builder -> int -> int -> unit
(** Add the undirected edge [{u, v}].  Self-loops and duplicate edges are
    rejected with [Invalid_argument] — the paper's model requires simple
    graphs (Lemma 3.14's argument depends on it). *)

val add_edge_if_absent : builder -> int -> int -> unit
(** Like {!add_edge} but silently ignores an already-present edge. *)

val has_edge_builder : builder -> int -> int -> bool

val freeze : builder -> t

val order : t -> int
(** Number of nodes. *)

val size : t -> int
(** Number of edges. *)

val degree : t -> int -> int

val max_degree : t -> int

val neighbours : t -> int -> int array
(** Sorted array of neighbours.  Physically shared with the graph: callers
    must not mutate it. *)

val adjacent : t -> int -> int -> bool
(** O(log degree) adjacency test. *)

val neighbours_mask : t -> int -> Bitset.t
(** The neighbour set of [v] as a bitset over the node universe, built at
    {!freeze} time.  Physically shared with the graph: callers must not
    mutate it.  This is the solver kernel's adjacency representation —
    [Bitset.count_common (neighbours_mask g v) alive] is [v]'s degree in
    [alive], and row ∩ remaining intersections drive candidate generation
    and the connectivity prune word-parallel. *)

val iter_neighbours : t -> int -> (int -> unit) -> unit

val fold_neighbours : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val edges : t -> (int * int) list
(** All edges as pairs [(u, v)] with [u < v], lexicographically sorted. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges order es] builds a graph directly from an edge list. *)

val induced_mask : t -> Bitset.t -> t * int array * int array
(** [induced_mask g alive] is the subgraph induced by [alive], together with
    [to_sub] (old index -> new index, [-1] when dead) and [to_orig]
    (new index -> old index). *)

val is_clique_on : t -> int list -> bool
(** Whether every pair of the given (distinct) nodes is adjacent. *)

val equal : t -> t -> bool
(** Same order and same edge set (labels matter; not isomorphism). *)

val degree_histogram : t -> (int * int) list
(** [(d, count)] pairs, sorted by degree. *)

val pp : Format.formatter -> t -> unit
