(** Deterministic chaos harness (TigerBeetle-style simulation testing).

    [run] drives a {!Machine} (over the mixed node+link fault universe of
    {!Gdpn_core.Fault_model}) through a virtual multi-year workload:
    every virtual operation tick rolls ppm-denominated dice for each
    fault kind — node deaths, link cuts delivered mid-stream through
    {!Des}, colored-edge bursts (every link incident to one node),
    neighbor-closure kills (a node and all its graph neighbours),
    multi-element bursts within one repair round, follow-up faults
    landing while a repair is still in flight, engine crash/restarts
    that drop the plan cache ({!Machine.restart}), and repairs that
    rebuild the machine without its oldest fault.

    The harness keeps an independent {e shadow state} — the list of
    universe elements it believes are faulty — and after every applied
    event checks four invariants against it:

    - {b accounting}: the machine's fault list equals the shadow list,
      element for element, in injection order;
    - {b coverage}: the embedded pipeline validates against the degraded
      instance and uses {e every} healthy processor (the paper's
      graceful-degradation claim);
    - {b coherence}: the machine's live/lost verdict agrees with a
      from-scratch solve of the same fault mask that bypasses the plan
      cache (a stale cache shows up here, e.g. after a crash/restart);
    - {b stream}: every {!Des} segment conserves tokens (none lost, none
      duplicated) and preserves per-stage token order.

    Everything is driven by one {!Stream.Prng} seeded from [~seed], so a
    run replays byte-identically: on a violation the result carries the
    minimal event prefix and [gdp chaos --seed N] reproduces it exactly. *)

open Gdpn_core

(** {1 Fault-rate profiles} *)

type profile = Mild | Aggressive | Chaos

val profile_name : profile -> string
val profile_of_name : string -> profile option
(** ["mild"], ["aggressive"], ["chaos"]. *)

type rates = {
  node_death_ppm : int;  (** single node dies *)
  link_cut_ppm : int;  (** single link cut, delivered mid-stream *)
  colored_burst_ppm : int;
      (** all links incident to one node die at once (NIC/port failure) *)
  neighbor_kill_ppm : int;
      (** closed neighborhood N[v] dies (localised physical event) *)
  multi_burst_ppm : int;
      (** 2..k+1 random universe elements in one repair round *)
  follow_up_ppm : int;
      (** conditional on an applied fault: another fault lands while the
          repair is still in flight *)
  crash_restart_ppm : int;  (** engine crash: plan cache dropped, rebuilt *)
  cache_evict_ppm : int;
      (** plan cache trimmed to a random occupancy mid-storm (memory
          pressure): coherence must survive partial eviction, not just
          the full drop of a crash *)
  store_degrade_ppm : int;
      (** the L2 precompiled plan store ({!Gdpn_engine.Plan_store})
          churns: attached fresh, detached, or replaced by a copy with
          one flipped byte — corruption must fail closed into the solve
          path, never surface a wrong plan *)
  repair_ppm : int;  (** the oldest fault is repaired *)
}
(** Probabilities in parts per million per virtual operation (except
    [follow_up_ppm], which is per applied fault event). *)

val rates_of : profile -> rates

(** {1 Workload shape} *)

type config = {
  years : int;  (** virtual years of operation *)
  ops_per_day : int;  (** virtual operations per virtual day *)
  stream_every : int;
      (** run a fault-free {!Des} stream segment every this many ops
          (0 disables the periodic segments; mid-stream link cuts still
          run their own segments) *)
  stream_tokens : int;  (** tokens per stream segment *)
}

val default_config : config
(** 1 year at 200 ops/day (73 000 ops), a stream segment every 2 000
    ops, 12 tokens per segment. *)

(** {1 Events} *)

type kind =
  | Node_death
  | Link_cut
  | Colored_burst
  | Neighbor_kill
  | Multi_burst
  | Follow_up

val kind_name : kind -> string
(** ["node"], ["link"], ["colored"], ["neighbor"], ["burst"],
    ["follow-up"]. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}. *)

val all_kinds : kind list
(** Every kind, in a fixed display order. *)

type store_mode = Store_attach | Store_detach | Store_corrupt

val store_mode_name : store_mode -> string
(** ["attach"], ["detach"], ["corrupt"]. *)

type event =
  | Inject of {
      kind : kind;
      elts : Fault_model.elt list;  (** what the dice chose *)
      applied : int;  (** how many were new (not already faulty) *)
      lost : bool;  (** the burst killed the pipeline *)
    }
  | Stream of {
      tokens : int;
      mid_fault : Fault_model.elt option;
          (** a link cut scheduled inside the segment *)
      applied : bool;
      lost : bool;
    }
  | Crash_restart  (** {!Machine.restart}: plan cache dropped + rebuilt *)
  | Cache_evict of { before : int; after : int }
      (** {!Gdpn_engine.Engine.cache_trim} to a dice-chosen occupancy:
          entry counts across all shards before and after *)
  | Store_degrade of { mode : store_mode; attached : bool }
      (** L2 plan-store churn: a lazily compiled flat store for the
          machine's fault model is attached, detached, or swapped for a
          one-byte-corrupted copy ([attached] reports whether a store —
          possibly the corrupt one — is mmap'd afterwards) *)
  | Repair of {
      removed : Fault_model.elt list;
      full : bool;
          (** [true]: repair-all after a stream loss; [false]: the
              oldest fault only *)
      lost : bool;  (** re-injecting the remaining faults lost the stream *)
    }

type entry = { op : int; event : event }

(** {1 Results} *)

type violation = { v_op : int; v_invariant : string; v_detail : string }
(** [v_invariant] is ["accounting"], ["coverage"], ["coherence"],
    ["stream"] or ["store"] (the engine rejected a pristine compiled
    store — a compiler/attach bug, not an injected corruption). *)

type run = {
  profile : profile;
  seed : int;
  ops : int;  (** virtual ops executed (stops at the violation, if any) *)
  events : entry list;
      (** chronological; on a violation this is the minimal event prefix
          ending with the violating event *)
  faults_applied : int;
  kinds_covered : kind list;  (** kinds with at least one applied fault *)
  repairs : int;
  crashes : int;
  cache_evicts : int;
  store_degrades : int;  (** plan-store churn events *)
  streams : int;
  losses : int;  (** beyond-spec events that killed the pipeline *)
  digest : int;
      (** order-sensitive hash of the event trace and the machine state
          after every event — two runs agree iff this does *)
  violation : violation option;
}

val run :
  ?config:config ->
  ?perturb:(int -> Machine.t -> unit) ->
  profile:profile ->
  seed:int ->
  Instance.t ->
  run
(** Run the scenario.  Deterministic: same instance, profile, config and
    seed produce an identical {!run} (same events, same digest).
    [perturb] is a test seam called with [(op, machine)] before each
    op's dice roll — tests use it to sabotage the machine behind the
    shadow state's back and prove the invariant checkers catch it at a
    reproducible op. *)

(** {1 Invariant checkers}

    Exposed so tests can aim them at hand-built violating states.  All
    return [Error detail] on violation. *)

val check_accounting : Machine.t -> shadow:int list -> (unit, string) result
(** Machine fault list = [shadow] (universe indices, injection order). *)

val check_coverage : Machine.t -> (unit, string) result
(** If a pipeline is embedded: it validates against the degraded
    instance and uses every healthy processor. *)

val check_coherence : Machine.t -> (unit, string) result
(** The machine's live/lost verdict agrees with a scratch
    {!Fault_model.solve} of its fault mask (no plan cache, no splice).
    A scratch solve that gives up is inconclusive and passes. *)

val check_stream : stages:int -> tokens:int -> Des.outcome -> (unit, string) result
(** Token conservation and ordering for one {!Des} segment: every
    completed token visited each of the [stages] stages exactly once, no
    (token, stage) service interval is duplicated, per-token stage order
    is monotone, and within each stage tokens start in index order. *)

(** {1 Rendering} *)

val pp_event : Format.formatter -> event -> unit
val pp_entry : Format.formatter -> entry -> unit
val pp_run : Format.formatter -> run -> unit
(** Summary line(s); on a violation, includes the seed, the invariant,
    the detail and the full event prefix — everything needed to replay. *)
