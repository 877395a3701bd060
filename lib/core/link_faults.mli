(** Link (edge) faults.

    The paper's model takes node faults only; it cites Hayes' observation
    that a faulty communication link can be accommodated "by viewing an
    adjacent processor as being faulty".  That reduction preserves the
    existence of {e a} pipeline but not graceful degradation: the killed
    endpoint is healthy and the resulting pipeline strands it.  This module
    makes the distinction precise and measurable:

    - {e graceful} tolerance of a mixed fault set: a pipeline through every
      healthy processor that avoids the faulty links;
    - {e degraded} tolerance (the Hayes reduction): a pipeline that avoids
      the faulty links but may leave up to one healthy processor per faulty
      link unused — still at least [n] processors when the total fault
      count is at most [k].

    The k-GD constructions are {b not} in general gracefully degradable
    under link faults (see [survey] and the E13 experiment): a link fault
    between two processors whose remaining connectivity cannot absorb a
    detour forces the degraded mode.  They {e are} degradedly tolerant of
    any [<= k] mixed faults, which [solve] realises constructively by
    searching over endpoint-killing choices.

    Since the introduction of {!Fault_model} this module is a thin wrapper
    over the mixed node+link model: the universe encoding, link
    degradation and the graceful solve live there; only the Hayes
    fallback and the survey bookkeeping remain here. *)

type fault =
  | Node of int
  | Link of int * int  (** unordered; must be an edge of the instance *)

type outcome =
  | Graceful of Pipeline.t
      (** every healthy processor used, no faulty link crossed *)
  | Degraded of Pipeline.t
      (** no faulty link crossed, but some healthy processors unused;
          still at least [n] processors for in-spec fault sets *)
  | No_pipeline
  | Gave_up

val solve :
  ?budget:int ->
  ?model:Fault_model.t ->
  Instance.t ->
  faults:fault list ->
  outcome
(** Try graceful first ({!Fault_model.solve} on the mixed model); fall
    back to the Hayes reduction over all endpoint-killing choices (at most
    [2^L] graceful solves for [L] link faults).  [model] shares a prebuilt
    mixed model (and hence its degraded-instance cache) across calls; it
    must be built over [inst] ([Invalid_argument] otherwise). *)

type survey = {
  fault_sets : int;
  graceful : int;  (** tolerated with all healthy processors in use *)
  degraded : int;  (** tolerated only by stranding healthy processors *)
  lost : int;  (** no pipeline at all (0 for in-spec fault sets) *)
  min_processors : int;  (** smallest pipeline seen across the survey *)
}

val survey_exhaustive : ?budget:int -> Instance.t -> survey
(** Classify every mixed fault set of size [0..k] (nodes and edges both
    count as single faults). *)

val pp_survey : Format.formatter -> survey -> unit
