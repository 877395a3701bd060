(** Domain-safe sharded plan cache: the concurrent core behind the
    engine's fault-plan table (and the [gdpd] daemon's worker domains).

    The table is split into [shards] independent slices by key hash
    ({!Gdpn_graph.Bitset.hash}); each slice is a fixed array of bucket
    lists published through [Atomic] cells plus a FIFO ring of resident
    keys.  The read path is {e lock-free and allocation-free}: a probe is
    one atomic load (a plain load on x86) and an immutable-list walk —
    the same work as the old single-domain [Hashtbl] probe.  Writers
    serialize on a per-shard mutex and publish with compare-and-swap, so
    K domains can read while one inserts into the same shard; readers
    concurrent with an eviction may still return the evicted value, which
    is sound for a plan cache (every resident plan was revalidated before
    insertion).

    Size is bounded: each shard holds at most [capacity / shards]
    entries and evicts its oldest resident (insertion order) to admit a
    new one — unlike the pre-PR 9 cache, which silently declined inserts
    at the limit.  Eviction order is deterministic for a deterministic
    op sequence, which is what keeps single-domain engine behaviour
    byte-identical run to run.

    Feeds the process-wide metrics [engine.cache_shard_hits],
    [engine.cache_shard_misses], [engine.cache_evictions] and the
    [engine.cache_size] gauge. *)

type 'a t

val create : ?shards:int -> capacity:int -> unit -> 'a t
(** [create ~capacity ()] builds an empty cache bounded at roughly
    [capacity] entries ([shards] slices of [max 1 (capacity / shards)]
    each).  [shards] defaults to {!default_shards} and is rounded up to
    a power of two.  [Invalid_argument] if [capacity < 1]. *)

val default_shards : int
(** 16 — fixed (not derived from the running machine) so eviction
    timing, and therefore engine behaviour, is reproducible across
    hosts. *)

val shards : 'a t -> int

val find_opt : 'a t -> Gdpn_graph.Bitset.t -> 'a option
(** Lock-free probe.  Never blocks, never allocates beyond the result
    option. *)

val add : 'a t -> Gdpn_graph.Bitset.t -> 'a -> unit
(** Insert a binding, copying the key (callers mutate their masks
    between calls).  If the key is already resident the insert is
    dropped — first write wins, so racing domains that solved the same
    mask keep one canonical plan.  If the target shard is full its
    oldest resident is evicted first. *)

val length : 'a t -> int
(** Current resident count (sum over shards; exact when quiescent). *)

val capacity : 'a t -> int
(** Total bound: per-shard capacity × shard count (≥ the [capacity]
    given to {!create}). *)

val trim : 'a t -> keep:int -> unit
(** Evict oldest residents (per shard, proportionally) until at most
    [keep] entries remain.  [trim ~keep:0] empties the cache through the
    eviction path — unlike {!clear}, every removal counts as an
    eviction.  Deterministic. *)

val clear : 'a t -> unit
(** Drop everything without counting evictions (crash/reset semantics,
    mirroring the old [Hashtbl.reset]). *)

val evictions : 'a t -> int
(** Evictions performed by this cache instance since creation. *)

val shard_stats : 'a t -> (int * int) array
(** Per-shard [(residents, evictions)] — the occupancy map behind
    [gdp stats] and the daemon's stats response. *)
