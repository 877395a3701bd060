(** Compact binary codec for the results of verification work units
    (the units themselves are never serialized: both ends of a pipe or
    checkpoint rebuild the canonical unit array, and only unit ids
    travel).

    One byte vocabulary serves two transports: the {e checkpoint file}
    (one checksummed frame appended per drained unit, torn tails from a
    killed process detected and skipped on resume) and the
    {e coordinator/worker pipe protocol} (the same length-prefixed frames,
    reusable by a future [gdpd] daemon).  Integers are LEB128 varints:
    fault ids and unit ids are tiny, enumeration ranks approach int63,
    and varints serve both without a fixed-width compromise. *)

type unit_result = {
  r_unit : int;  (** unit id: index in the canonical unit array *)
  r_entries : (int * Gdpn_core.Verify.failure) list;
      (** rank-tagged failures found in this unit, capped at the run's
          [max_failures] — by the Topk argument, higher-ranked entries
          can never reach a merged report *)
}

exception Corrupt of string
(** Raised by decoders on malformed input (overlong varint, bad tag,
    checksum mismatch on a channel frame). *)

val put_uint : Buffer.t -> int -> unit
(** LEB128-encode a nonnegative int.  Raises [Invalid_argument] on a
    negative argument. *)

val get_uint : string -> int -> int * int
(** [get_uint s pos] decodes a varint at [pos], returning the value and
    the position after it. *)

val put_string : Buffer.t -> string -> unit
val get_string : string -> int -> string * int
val put_unit_result : Buffer.t -> unit_result -> unit
val get_unit_result : string -> int -> unit_result * int

val adler32 : string -> int
(** Adler-32 checksum (pure OCaml; frames are small). *)

val frame : string -> string
(** [frame payload] is [len:4 LE ++ payload ++ adler32:4 LE]. *)

val frame_overhead : int
(** Bytes {!frame} adds around a payload (8). *)

val read_frame : string -> int -> (string * int) option
(** [read_frame s pos] parses one complete frame at [pos]: [Some
    (payload, next)] on success, [None] when the bytes from [pos] are
    incomplete or fail the checksum — for a checkpoint file that means
    the torn tail of an interrupted run, for a pipe read buffer it means
    "wait for more bytes". *)

val output_frame : out_channel -> string -> unit
(** Write one frame and flush — a single buffered write, so a record is
    either fully in the OS pipe/file or detectably absent. *)

val input_frame : in_channel -> string option
(** Blocking read of one frame; [None] on clean EOF, raises {!Corrupt}
    on a checksum mismatch. *)
