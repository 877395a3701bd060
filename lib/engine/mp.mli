(** Multi-process verification: coordinator and worker halves of the
    [gdp verify] [--procs N] mode.

    Work units come from an {!Engine.Parallel.Task} — the same units
    {!Gdpn_core.Verify} and the in-process domain scheduler drain — and
    messages are {!Codec} frames over plain pipes (length prefix +
    Adler-32, the same byte shapes as the checkpoint file and [gdpd]'s
    wire).  The coordinator feeds every streamed
    per-unit result into the deterministic rank merge, so an N-process
    report is identical to {!Gdpn_core.Verify}'s; attach a
    {!Checkpoint.writer} and the run is resumable with the same file
    format and soundness rules as the in-process scheduler.

    IPC volume (both directions, frame overhead included) lands in the
    [engine.ipc_bytes] counter. *)

exception Worker_died of int
(** A worker process closed its pipe with a unit still assigned (crash,
    kill): the run cannot be trusted and the coordinator aborts.  The
    payload is the worker's pid. *)

val worker_main : ?max_failures:int -> Engine.Parallel.Task.t -> unit
(** Serve unit assignments from stdin until a quit frame or EOF,
    answering each with a result frame on stdout (which carries protocol
    frames only — the worker never prints).  The caller ([gdp
    verify-worker]) must rebuild the task from the same spec the
    coordinator used: the unit decomposition is canonical, so matching
    specs guarantee matching unit arrays.  [max_failures] caps per-unit
    recorded entries, exactly like the checkpoint writer's cap. *)

val run :
  ?max_failures:int ->
  procs:int ->
  argv:string array ->
  ?checkpoint:Checkpoint.writer ->
  ?resumed:(int, Codec.unit_result) Hashtbl.t ->
  Engine.Parallel.Task.t ->
  Gdpn_core.Verify.report
(** Farm the task's units over [procs] children spawned from [argv]
    (typically [Sys.executable_name] + a [verify-worker] spec), one
    in-flight unit per worker, results merged exactly as
    {!Engine.Parallel.run_task} merges per-domain buffers.  [resumed]
    units are skipped and their recorded entries seed the early-stop
    cutoff (bumps [verify.units_resumed]); with [checkpoint], each
    worker result is appended as it arrives.  Raises {!Worker_died} if a
    child dies mid-assignment. *)
