(** Fixed-capacity packed bitsets over the integer universe [0, capacity).

    Used throughout the solvers to represent "alive" node sets and visited
    sets without allocation in inner loops.  All indices must satisfy
    [0 <= i < capacity t]; this is enforced with assertions. *)

type t

val create : int -> t
(** [create capacity] is the empty set over universe [0, capacity). *)

val full : int -> t
(** [full capacity] contains every element of [0, capacity). *)

val capacity : t -> int
(** Size of the universe the set was created over. *)

val copy : t -> t
(** Independent copy. *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] overwrites [dst] with [src]'s contents.
    The two sets must have equal capacity. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val clear : t -> unit

val fill : t -> unit
(** In-place version of {!full}: make [t] contain every element of its
    universe without allocating.  Solver contexts use [fill] + {!diff_into}
    to rebuild alive sets between calls. *)

val cardinal : t -> int
(** Number of elements, computed by popcount over the words. *)

val is_empty : t -> bool

val equal : t -> t -> bool
(** Structural equality of contents (capacities must match). *)

val subset : t -> t -> bool
(** [subset a b] is true when every element of [a] is in [b]. *)

val inter_into : t -> t -> unit
(** [inter_into a b] replaces [a] with [a] ∩ [b]. *)

val diff_into : t -> t -> unit
(** [diff_into a b] replaces [a] with [a] \ [b]. *)

val union_into : t -> t -> unit
(** [union_into a b] replaces [a] with [a] ∪ [b]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over elements in increasing order. *)

val elements : t -> int list
(** Elements in increasing order. *)

val of_list : int -> int list -> t
(** [of_list capacity xs] builds a set containing [xs]. *)

val choose : t -> int option
(** Smallest element, if any. *)

val count_common : t -> t -> int
(** [count_common a b] is [cardinal (a ∩ b)] without allocating. *)

val inter_into_from : dst:t -> t -> t -> unit
(** [inter_into_from ~dst a b] overwrites [dst] with [a] ∩ [b] (all three
    sets of equal capacity; [dst] may alias [a] or [b]).  One load/store
    pair per word — the solver kernel's "materialise an intersection into
    scratch" primitive. *)

val iter_common : (int -> unit) -> t -> t -> unit
(** [iter_common f a b] applies [f] to every element of [a] ∩ [b] in
    increasing order, without materialising the intersection.  The kernel's
    replacement for "iterate neighbours, probe membership" loops. *)

val first_common : t -> t -> int option
(** Smallest element of [a] ∩ [b], if any — [choose] on the intersection
    without materialising it. *)

val compare : t -> t -> int
(** Total order on equal-capacity sets (word-lexicographic); suitable for
    [Map]/[Set] keys and deterministic result merging. *)

val hash : t -> int
(** Structural hash consistent with {!equal}. *)

val to_key : t -> string
(** Canonical byte-string key of the contents: equal sets (over equal
    capacities) produce equal keys.  Used by the engine's fault-plan cache
    to key solved fault masks. *)

val pp : Format.formatter -> t -> unit
