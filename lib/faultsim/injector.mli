(** Fault schedules: which node fails at which round.

    Schedules never repeat a node and, except for [unbounded_random], never
    exceed the instance's tolerance [k] — the regimes the paper's guarantees
    cover.  [unbounded_random] deliberately exceeds [k] to exercise the
    beyond-spec behaviour. *)

type event = { round : int; node : int }

type schedule = event list
(** Sorted by the total key [(round, node)], so any schedule over
    distinct nodes has exactly one valid order and replays
    byte-identically from its seed. *)

val sort_schedule : schedule -> schedule
(** Stable sort under the total [(round, node)] key — the normal form
    every generator below returns.  Exposed so replay tooling (and the
    tests) can normalise hand-built schedules the same way. *)

val random :
  rng:Stream.Prng.t -> Gdpn_core.Instance.t -> count:int -> rounds:int -> schedule
(** {!random_model} over [Fault_model.node inst]: [count <= k] faults at
    uniformly random distinct nodes (terminals included) and uniformly
    random rounds. *)

val random_model :
  rng:Stream.Prng.t ->
  Gdpn_core.Fault_model.t ->
  count:int ->
  rounds:int ->
  schedule
(** Faults at distinct, uniformly random universe indices of the model
    (nodes, links, colour classes, neighborhoods) and uniformly random
    rounds, for a machine created with the same model. *)

val random_processors_only :
  rng:Stream.Prng.t -> Gdpn_core.Instance.t -> count:int -> rounds:int -> schedule
(** Like {!random} but only processor nodes fail (the merged-terminal
    fault model). *)

val burst : Gdpn_core.Instance.t -> count:int -> at:int -> schedule
(** [count] consecutive processor ids all failing at round [at] — the
    clustered-fault worst case for ring-like constructions. *)

val adversarial_terminals : Gdpn_core.Instance.t -> count:int -> at:int -> schedule
(** Fail input terminals first (then output terminals): the fault class
    that distinguishes this paper's model from unlabeled-graph schemes. *)

val geometric :
  rng:Stream.Prng.t ->
  Gdpn_core.Instance.t ->
  rate:float ->
  rounds:int ->
  max_count:int ->
  schedule
(** Memoryless arrivals: each round, an additional fault strikes with
    probability [rate] (on a uniformly random not-yet-failed node), up to
    [max_count] faults — the classical exponential-lifetime component
    model, discretised. *)

val clustered :
  rng:Stream.Prng.t ->
  Gdpn_core.Instance.t ->
  count:int ->
  at:int ->
  spread:int ->
  schedule
(** Spatially correlated burst: a random centre processor and the
    [count - 1] processors nearest to it in id order (within [spread]),
    all failing at round [at] — models a localised physical event (power
    domain, chip region).  Falls back to the nearest available ids when
    the window is too small. *)

val apply_due : schedule -> round:int -> Machine.t -> int
(** Inject every event of the given round into the machine; returns how
    many were injected. *)
