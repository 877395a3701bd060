(** Precompiled plan warehouse: the L2 tier under {!Shard_cache}.

    A store file holds the outcome of [Reconfig.solve] for every fault
    set of an instance up to a size bound — or, under a nontrivial
    automorphism group, one record per fault-set {e orbit}, keyed on the
    orbit's min-lex representative.  At runtime the file is mmap'd
    read-only and probed with an open-addressed hash; the engine
    canonicalizes a queried set ({!Auto.canonical_with_transport}) and
    relabels the stored plan back through the automorphism.  All frames
    are Adler-32 checksummed ({!Codec}); any corruption reads as a miss
    (lookups) or a clean error (open/validate) — never a wrong plan. *)

(** {1 Compiling} *)

type writer
(** An in-memory store under construction.  Not thread-safe;
    [Engine.compile_plans] adds every outcome from the calling domain,
    in rank order, once the drain is done. *)

val writer :
  digest:string ->
  model_id:int ->
  orbit:bool ->
  usize:int ->
  order:int ->
  max_size:int ->
  writer
(** [digest] is [Certify.digest] of the instance the plans are for;
    [model_id] the {!Fault_model.id} of the universe ([0] = node
    faults); [orbit] whether keys are orbit representatives needing
    transport at lookup; [usize] the fault universe size (at most
    [0xffff]); [order] the instance's node count (plan nodes are bound
    checked against it); [max_size] the largest stored set. *)

val add :
  writer -> set:int array -> count:int -> Gdpn_core.Reconfig.outcome -> unit
(** Record one solved representative; [set] must be sorted, in range and
    new, [count] is its orbit size (1 in flat mode).  [Gave_up] outcomes
    are counted but {e not} stored — a budget-starved compile must read
    as a store miss at runtime, never as a cachable verdict.  Raises
    [Invalid_argument] on malformed or duplicate sets. *)

val gave_up : writer -> int
(** How many [Gave_up] outcomes were dropped so far. *)

val write : writer -> path:string -> unit
(** Lay out the index and records and publish the file atomically
    (write to [path ^ ".part"], then rename). *)

(** {1 Serving} *)

type t
(** A read-only store, mmap'd.  The mapping outlives {!close} and is
    reclaimed by the GC; concurrent {!lookup}s from many domains are
    safe (the structure is immutable). *)

val open_path : path:string -> (t, string) result
(** Map and validate the magic, header frame and index geometry.
    Record payloads are validated lazily, per {!lookup}. *)

val close : t -> unit

val digest : t -> string
val model_id : t -> int
val orbit_compressed : t -> bool
val max_size : t -> int

val records : t -> int
(** Stored records (orbit representatives). *)

val total_sets : t -> int
(** Fault sets covered, i.e. the sum of orbit sizes — the compression
    ratio is [total_sets / records]. *)

val mmap_bytes : t -> int
(** Size of the mapping, for the [engine.store_mmap_bytes] gauge. *)

val lookup : t -> int array -> Gdpn_core.Reconfig.outcome option
(** Probe for a sorted canonical set.  [None] on a genuine miss {e and}
    on any malformed record met along the probe path — corruption fails
    closed into the solve path. *)

val validate : t -> (int, string) result
(** Full structural audit (every slot, every record frame, key order and
    uniqueness, plan node bounds, header record count); returns the
    record count.  Used by the compiler's final self-check and the
    corruption tests. *)
