(** graph6 encoding and decoding (McKay's format, as used by nauty and the
    House of Graphs) for graphs of up to 62 nodes.

    Used to exchange the special-solution graphs and impossibility-search
    candidates with external tools, and as a compact canonical-ish storage
    format in tests.  Only the short form (n <= 62) is implemented; larger
    graphs raise [Invalid_argument]. *)

val encode : Graph.t -> string
(** Standard graph6 string: [chr (n + 63)] followed by the upper-triangle
    bit vector in column order, 6 bits per printable character. *)

val decode : string -> Graph.t
(** Inverse of {!encode}.  Raises [Invalid_argument] on malformed input,
    including nonzero padding bits in the last character, so a decoded
    string always re-encodes to itself. *)
