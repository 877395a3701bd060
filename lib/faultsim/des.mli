(** Discrete-event, token-level pipeline simulation.

    {!Runner} models throughput with a per-frame cost formula; this module
    simulates the stream at token granularity to expose what the paper's
    real-time motivation actually cares about: {e latency} — including the
    spike every reconfiguration causes.

    Model: tokens (frames) arrive at a fixed period.  Each token must pass
    through every stage in order; stage [j] occupies its hosting processor
    for [Stage.cost] work units, and a processor serves the work items in
    its queue FIFO.  Hosts come from the machine's current pipeline
    embedding (balanced contiguous blocks, as in {!Runner.stage_blocks}).
    A fault event injects into the machine mid-run: pending work migrates
    to the stages' new hosts and every host stalls for the repair latency —
    small for a local splice, large for a full reconfiguration (the two
    constants are configurable).  Tokens are never dropped; they wait.

    Everything is deterministic: same inputs, same event order (FIFO
    tie-breaking in the event queue), same latencies. *)

type config = {
  arrival_period : int;  (** work units between token arrivals *)
  frame_length : int;  (** drives per-stage costs *)
  splice_latency : int;  (** stall when a fault is absorbed locally *)
  remap_latency : int;  (** stall for a full reconfiguration *)
  migration_cost_per_word : int;
      (** extra stall per word of stage state ({!Stage.state_size}) whose
          hosting processor changed in the remap *)
}

val default_config : config
(** period 2000, frame 256, splice 50, remap 2000, migration 10/word. *)

type activity = {
  host : int;  (** processor node id *)
  stage : int;  (** stage index *)
  token : int;
  start : int;
  finish : int;
}

type outcome = {
  tokens_completed : int;
  makespan : int;  (** completion time of the last token *)
  mean_latency : float;
  max_latency : int;
  p99_latency : int;  (** nearest-rank ({!Stats.percentile_int}) *)
  stall_time : int;  (** total repair stall imposed on the hosts *)
  faults_injected : int;  (** faults in the schedule *)
  faults_applied : int;
      (** fault events actually processed — equal to [faults_injected]
          unless the run aborted; includes post-completion faults *)
  faults_late : int;
      (** faults applied after the last token completed (they still
          mutate the machine and count into [stall_time], but cannot
          affect any token's latency) *)
  stream_lost : bool;
      (** a fault killed the pipeline and the run was stopped
          ([~on_lost:`Stop] only — the default raises instead).  Latency
          statistics then cover completed tokens only; unfinished tokens
          keep latency [-1] in [latencies]. *)
  latencies : int array;  (** per-token end-to-end latency, arrival order *)
  activity : activity list;
      (** every completed service interval, in completion order — the
          chaos harness ({!Scenario}) checks it against the token and
          stage counts *)
}

val simulate :
  ?on_lost:[ `Fail | `Stop ] ->
  machine:Machine.t ->
  stages:Stage.t list ->
  config:config ->
  faults:(int * int) list ->
  tokens:int ->
  unit ->
  outcome
(** [simulate ~machine ~stages ~config ~faults ~tokens ()] runs [tokens]
    arrivals with faults given as [(time, node)] pairs.  The machine must
    hold a live pipeline.  Faults scheduled after the last token
    completes are still applied (draining the event queue), so the
    machine's end state always reflects the whole schedule.  [on_lost]
    selects the beyond-spec behaviour when a fault kills the stream
    entirely: [`Fail] (the default) raises [Failure] — in-spec fault
    lists never lose the stream — while [`Stop] ends the run cleanly
    with [stream_lost = true] and every remaining scheduled event
    abandoned, which is what the chaos harness ({!Scenario}) needs to
    keep driving the machine past the loss. *)

val pp_outcome : Format.formatter -> outcome -> unit
