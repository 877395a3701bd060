(** Capacity planning: choosing [k].

    The theorems answer "what does [k] guarantee?"; a deployer asks the
    converse: given a per-node failure probability over the mission time,
    which [k] keeps the stream alive with the required probability?
    Because the constructions usually survive well beyond [k] random faults
    (experiment E15), the guarantee-only bound [P(faults <= k)] is
    pessimistic; this module estimates the true survival probability by
    Monte Carlo over the actual reconfiguration solver and searches for the
    smallest adequate [k]. *)

type estimate = {
  trials : int;
  survived : int;
  probability : float;  (** point estimate: survived / trials *)
  wilson_low : float;  (** 95% Wilson score lower bound *)
}

val survival_probability :
  rng:Random.State.t ->
  trials:int ->
  node_failure_prob:float ->
  Instance.t ->
  estimate
(** Each trial fails every node independently with the given probability
    and asks the solver for a pipeline.  (Terminals fail too — the paper's
    fault model.) *)

val guarantee_only_bound : n:int -> k:int -> node_failure_prob:float -> float
(** The pessimistic analytic bound: the probability that at most [k] of
    the instance's [n + 3k + 2]-ish nodes fail (binomial tail on the
    standard node count [2(k+1) + n + k]).  Survival is certain in that
    event and unaccounted beyond it. *)

val recommend_k :
  rng:Random.State.t ->
  ?trials:int ->
  n:int ->
  node_failure_prob:float ->
  target:float ->
  unit ->
  (int * estimate) option
(** Smallest supported [k <= 8] whose Wilson lower bound meets
    [target], with its estimate.  [None] when even [k = 8] falls short or
    no construction exists.  Raises [Invalid_argument] when
    [trials] is too small to certify [target] at all (the Wilson bound of
    a perfect run caps below the target). *)

val pp_estimate : Format.formatter -> estimate -> unit
