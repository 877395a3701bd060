(** Out-of-core checkpointing for every drain of a
    {!Gdpn_core.Verify.Task}: exhaustive verification ([gdp verify
    --checkpoint]) and plan compiles ([gdp compile-plans --checkpoint]),
    whose unit records also carry the unit's witnesses.

    A checkpoint file ([gdpn-ckpt 2]; format 1 is refused by name) pins
    the task in a header frame, then grows by one checksummed
    {!Codec.unit_result} frame per drained work unit.  Appends are
    single-write + flush, so a SIGKILLed run leaves at worst one torn
    trailing frame — {!load} detects and discards it.  A resumed run
    feeds the recorded per-unit results straight into the deterministic
    rank merge (and their witnesses to the run's sink) and processes
    only the missing units; the final report or store is byte-identical
    to an uninterrupted run's. *)

type header = {
  h_digest : string;  (** instance digest ({!Gdpn_core.Certify.digest}) *)
  h_model : int;  (** {!Gdpn_core.Fault_model.id}; 0 = the node model *)
  h_orbit : bool;  (** orbit-reduced enumeration *)
  h_splice : bool;  (** splice-first chains (informational) *)
  h_max_failures : int;  (** per-unit entry cap = the merge's cap *)
  h_usize : int;  (** fault universe size *)
  h_max_size : int;  (** largest fault-set size the task enumerates *)
  h_nunits : int;  (** canonical unit count *)
  h_universe : int list option;
      (** the task's universe restriction ([None]: the whole universe) *)
  h_witnesses : bool;
      (** unit records carry witnesses: a plan compile, not a
          verification *)
}

type writer

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
(** Reject resuming a verification from a compile's checkpoint or the
    other way round, and under a different instance, model, enumeration
    mode, [max_failures], universe, max size or unit decomposition. *)

(** {1 Sessions} *)

type session = {
  writer : writer option;  (** where the run appends its unit records *)
  loaded : loaded option;  (** what a resumed file already holds *)
}

val start :
  ?create:string -> ?resume:string -> header Lazy.t -> (session, string) result
(** One run's checkpoint: [create] truncates the file and writes the
    header; [resume] loads the file, checks its header against the run's
    ({!check_header}), cuts off a torn tail and reopens it for
    appending; neither gives an empty session.  [Error] says why a
    resume was refused, or that both were given. *)

val pp_resumed : Format.formatter -> loaded -> unit
(** The [resume: U/N units already recorded...] line. *)
