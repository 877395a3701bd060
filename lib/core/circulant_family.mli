(** The asymptotic construction of §3.4 for [k >= 4] and sufficiently
    large [n] (Theorem 3.17, Figures 14–15).

    The extended graph [G'(n,k)] partitions its [n + 3k + 6] nodes into six
    label-indexed sets [Ti', To', I', O', S'] (each [k+2] nodes, labels
    [0..k+1]) and [R'] ([n-2k-4] nodes, labels [k+2..n-k-3]).  [C' = S' ∪ R']
    carries a circulant graph (Elspas & Turner) on [m = n-k-2] nodes with
    offsets [1..p+1] where [p = floor(k/2)], plus "bisector" edges at offset
    [floor(m/2)] when [k] is odd; [I'] and [O'] are cliques; label-matched
    edges run Ti'-I', I'-S', S'-O', O'-To'.  The construction contains
    Hayes's fault-tolerant cycle as the circulant subgraph.

    The solution graph [G(n,k)] deletes the label-0 nodes of [Ti', I'], the
    label-(k+1) nodes of [To', O'], and the unit-offset edges inside [S].
    It has [n + 3k + 2] nodes, degree-1 terminals, and maximum degree [k+2]
    — except [k+3] when [n] is even and [k] odd, matching Lemma 3.5 — so it
    is node- and degree-optimal. *)

val min_n : k:int -> int
(** Smallest [n] this implementation accepts: [3k + 6], which guarantees
    [|R| >= k + 2] so that no circulant offset wraps into a collision.
    (The paper only states that [n] linear in [k] suffices.) *)

val build : n:int -> k:int -> Instance.t
(** [G(n,k)].  Raises [Invalid_argument] when [k < 4] or [n < min_n ~k]. *)

val extended : n:int -> k:int -> Gdpn_graph.Graph.t * Label.t array
(** The extended graph [G'(n,k)] with its node labelling — exposed for the
    structural tests (regular degrees, supergraph relationship). *)

(** Node-set accessors for a [build] result (used by tests and the DOT
    renderings of Figures 14–15).  Node ids: circulant nodes [C = S ∪ R]
    occupy ids [0..m-1] in label order; then [I], [O], [Ti], [To]. *)

val s_nodes : n:int -> k:int -> int list
val r_nodes : n:int -> k:int -> int list
