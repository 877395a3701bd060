(** Wire protocol for the [gdpd] plan-serving daemon.

    Transport framing is {!Gdpn_engine.Codec.frame} — the checkpoint
    file's [len:4 LE][payload][adler32:4 LE] frames, reused verbatim.
    This module is the payload vocabulary: tagged request/response
    messages with LEB128 varint integers.  The normative wire description
    lives in [PROTOCOL.md]. *)

val version : int
(** Protocol version advertised in {!response.Welcome} (1). *)

val max_batch : int
(** Upper bound on requests per batch, elements per mask and outcomes
    per response (65536).  Larger counts are rejected with
    {!err_batch_too_large} server-side and {!Bad_message}
    decoder-side. *)

val max_request_len : order:int -> int
(** The longest request payload a client sends to a fleet whose largest
    instance has [order] nodes: a [Batch] of {!max_batch} masks, each of
    at most [order] distinct elements.  [gdpd] refuses a longer frame
    from its header alone and drops the connection. *)

(** {1 Error codes}

    1 [err_bad_request] — malformed or unknown message;
    2 [err_unknown_instance] — instance id outside the fleet;
    3 [err_bad_element] — fault element outside the instance;
    4 [err_batch_too_large] — batch or mask over {!max_batch};
    5 [err_shutdown_disabled] — [Shutdown] to a daemon started with
    [--no-shutdown]. *)

val err_bad_request : int
val err_unknown_instance : int
val err_bad_element : int
val err_batch_too_large : int
val err_shutdown_disabled : int

(** {1 Messages} *)

type instance_info = { i_n : int; i_k : int; i_order : int }
(** One fleet slot: the instance's [n], [k] and graph order (fault
    elements are node ids in [0, i_order)). *)

type request =
  | Hello  (** negotiate: the reply is [Welcome] with the fleet list *)
  | Solve of { inst : int; faults : int list }
  | Batch of { inst : int; masks : int list list }
      (** many solves against one instance in one frame — the
          throughput path *)
  | Metrics_dump  (** the reply is [Json] with the lib/obs snapshot *)
  | Shutdown  (** stop the daemon (when enabled); the reply is [Ack] *)

type outcome = Plan of int list | No_plan | Gave_up
(** {!Gdpn_core.Reconfig.outcome} on the wire: a plan is its full node
    sequence, terminals included. *)

type response =
  | Welcome of { version : int; instances : instance_info list }
  | Outcome of outcome  (** reply to [Solve] *)
  | Outcomes of outcome list  (** reply to [Batch], in request order *)
  | Json of string
  | Ack
  | Error of { code : int; message : string }

exception Bad_message of int * string
(** [Bad_message (code, message)] is raised by the decoders on a
    malformed payload, with the error code a server answers it with:
    {!err_batch_too_large} for a count over {!max_batch},
    {!err_bad_request} otherwise (unknown tag, truncated varints,
    trailing junk).  Framing-level corruption raises
    {!Gdpn_engine.Codec.Corrupt} instead. *)

val encode_request : request -> string
(** Payload bytes (not yet framed — pass to {!Gdpn_engine.Codec.frame}
    or [output_frame]). *)

val decode_request : string -> request

val encode_response : response -> string
val decode_response : string -> response

val outcome_of_reconfig : Gdpn_core.Reconfig.outcome -> outcome
val equal_outcome : outcome -> outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit
