(** Out-of-core checkpointing for exhaustive verification.

    A checkpoint file pins the verification spec in a header frame, then
    grows by one checksummed {!Codec.unit_result} frame per drained work
    unit.  Appends are single-write + flush, so a SIGKILLed run leaves at
    worst one torn trailing frame — {!load} detects and discards it.  A
    resumed run feeds the recorded per-unit results straight into the
    deterministic rank merge and processes only the missing units; the
    final report is byte-identical to an uninterrupted run's. *)

type header = {
  h_digest : string;  (** instance digest ({!Gdpn_core.Certify.digest}) *)
  h_model : int;  (** {!Gdpn_core.Fault_model.id}; 0 = the node model *)
  h_orbit : bool;  (** orbit-reduced enumeration *)
  h_splice : bool;  (** splice-first chains (informational) *)
  h_max_failures : int;  (** per-unit entry cap = the merge's cap *)
  h_usize : int;  (** fault universe size *)
  h_k : int;  (** max fault-set size *)
  h_nunits : int;  (** canonical unit count *)
  h_universe : int list option;
      (** the task's universe restriction ([None]: the whole universe) *)
}

type writer

val create : path:string -> header -> writer
(** Truncate [path] and write the magic + header. *)

val open_append : path:string -> writer
(** Open an existing checkpoint for appending (resume); callers must
    have validated the header via {!load} + {!check_header} first. *)

val append : writer -> Codec.unit_result -> unit
(** Append one frame (single write + flush; safe from concurrent
    domains).  Bumps [verify.units_checkpointed]. *)

val close : writer -> unit

type loaded = {
  l_header : header;
  l_results : (int, Codec.unit_result) Hashtbl.t;
      (** unit id -> recorded result; duplicate records of a unit are
          dropped (first wins — results are deterministic, and feeding
          a span twice would corrupt the merge) *)
  l_duplicates : int;  (** duplicate records dropped *)
  l_torn_bytes : int;  (** trailing bytes discarded (interrupted append) *)
}

val load : path:string -> (loaded, string) result

val check_header : expected:header -> header -> (unit, string) result
(** Reject resuming under a different instance, model, enumeration mode,
    [max_failures], universe or unit decomposition. *)
