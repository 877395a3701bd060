(** Adversarial fault-set search: how bad can reconfiguration cost get?

    Average-case timings over random fault sets hide the tail; this
    module searches for the fault sets that maximise the {e generic}
    backtracking solver's work, measured in node expansions — a
    deterministic, hardware-independent cost.  The search is
    steepest-ascent hill climbing with restarts over size-[k] fault sets
    (swap one fault for one non-fault per step).

    The findings motivate the constructive strategies: on the circulant
    family the adversarial sets cost the generic solver orders of magnitude
    more than random sets, while the region-decomposition solver stays
    flat (EXPERIMENTS.md E16). *)

type finding = {
  faults : int list;
      (** the adversarial fault set found, as universe indices of the
          model (node ids for the node model; render with
          {!Fault_model.describe}) *)
  expansions : int;  (** generic-solver node expansions it causes *)
  outcome : [ `Found | `None | `Gave_up ];
  restarts : int;  (** hill-climbing restarts performed *)
  evaluations : int;  (** total candidate fault sets evaluated *)
}

val worst_case :
  rng:Random.State.t ->
  ?restarts:int ->
  ?budget:int ->
  ?model:Fault_model.t ->
  Instance.t ->
  finding
(** Hill-climb for the size-[k] fault set maximising generic-solver
    expansions.  [restarts] (default 5) independent climbs from random
    seeds; [budget] (default 500_000) caps each probe so a pathological
    candidate cannot stall the search — a probe that exhausts the budget
    scores as the budget value.  The search runs best-response over the
    whole universe of [model] (built over this instance —
    [Invalid_argument] otherwise; default [Fault_model.node inst]):
    candidates mix nodes, links, colour classes or neighborhoods, and
    probes ({!Fault_model.probe}) measure the link-degraded instance. *)

val random_baseline :
  rng:Random.State.t -> trials:int -> ?budget:int -> Instance.t -> int * int
(** [(mean, max)] generic-solver expansions over random size-[k] fault
    sets, for contrast with {!worst_case}. *)
