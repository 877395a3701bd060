(* Compact binary codec for the results of verification work units.
   Units themselves are never recorded: a run and its resume both
   rebuild the canonical unit array from the spec, and only unit ids are
   written.

   Everything here is deliberately dependency-free and stream-oriented:
   the same byte shapes serve the checkpoint file (appended record by
   record, torn tails detected by frame checksums) and gdpd's request
   frames (the same length-prefixed, checksummed frames).  Integers are LEB128 varints —
   fault element ids, unit ids and orbit sizes are tiny, while
   enumeration ranks can approach int63, and varints serve both ends
   without a fixed-width compromise. *)

module Reconfig = Gdpn_core.Reconfig
module Verify = Gdpn_core.Verify

type unit_result = {
  r_unit : int;  (** unit id: index in the canonical unit array *)
  r_entries : (int * Verify.failure) list;
      (** rank-tagged failures found in this unit, capped at the run's
          [max_failures] (higher ranks can never reach a merged report) *)
  r_witnesses : Verify.witness list;
      (** every item the unit checked, in drain order, when the run
          records witnesses; [] otherwise *)
}

(* ------------------------------------------------------------------ *)
(* Varints                                                             *)
(* ------------------------------------------------------------------ *)

exception Corrupt of string

let put_uint buf n =
  if n < 0 then invalid_arg "Codec.put_uint: negative";
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let get_uint s pos =
  let v = ref 0 and shift = ref 0 and pos = ref pos and continue = ref true in
  while !continue do
    if !pos >= String.length s then raise (Corrupt "truncated varint");
    if !shift > 62 then raise (Corrupt "varint too wide");
    let b = Char.code s.[!pos] in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  (!v, !pos)

let put_string buf s =
  put_uint buf (String.length s);
  Buffer.add_string buf s

let get_string s pos =
  let len, pos = get_uint s pos in
  if pos + len > String.length s then raise (Corrupt "truncated string");
  (String.sub s pos len, pos + len)

(* A list: its length, then its elements. *)
let put_list put buf l =
  put_uint buf (List.length l);
  List.iter (put buf) l

let get_list get s pos =
  let n, pos = get_uint s pos in
  if n > String.length s then raise (Corrupt "bad list length");
  let pos = ref pos in
  let l =
    List.init n (fun _ ->
        let v, p = get !pos in
        pos := p;
        v)
  in
  (l, !pos)

(* ------------------------------------------------------------------ *)
(* Unit results                                                        *)
(* ------------------------------------------------------------------ *)

let put_failure buf (f : Verify.failure) =
  put_list put_uint buf f.faults;
  put_string buf f.reason;
  put_uint buf f.orbit

let get_failure s pos =
  let faults, p = get_list (get_uint s) s pos in
  let reason, p = get_string s p in
  let orbit, p = get_uint s p in
  ({ Verify.faults; reason; orbit }, p)

(* An outcome: tag 0 = No_pipeline, 1 = Pipeline (then its node list),
   2 = Gave_up.  Plan store records hold the same bytes. *)
let put_outcome buf = function
  | Reconfig.No_pipeline -> put_uint buf 0
  | Reconfig.Pipeline p ->
    put_uint buf 1;
    put_list put_uint buf p.Gdpn_core.Pipeline.nodes
  | Reconfig.Gave_up -> put_uint buf 2

let get_outcome s pos =
  let tag, pos = get_uint s pos in
  match tag with
  | 0 -> (Reconfig.No_pipeline, pos)
  | 1 ->
    let nodes, pos = get_list (get_uint s) s pos in
    (Reconfig.Pipeline { Gdpn_core.Pipeline.nodes }, pos)
  | 2 -> (Reconfig.Gave_up, pos)
  | _ -> raise (Corrupt "bad outcome tag")

let put_witness buf (w : Verify.witness) =
  put_uint buf w.w_rank;
  put_list put_uint buf (Array.to_list w.w_set);
  put_uint buf w.w_orbit;
  put_outcome buf w.w_outcome

let get_witness s pos =
  let w_rank, pos = get_uint s pos in
  let set, pos = get_list (get_uint s) s pos in
  let w_orbit, pos = get_uint s pos in
  let w_outcome, pos = get_outcome s pos in
  ({ Verify.w_rank; w_set = Array.of_list set; w_orbit; w_outcome }, pos)

let put_unit_result buf r =
  put_uint buf r.r_unit;
  put_list
    (fun buf (rank, f) ->
      put_uint buf rank;
      put_failure buf f)
    buf r.r_entries;
  put_list put_witness buf r.r_witnesses

let get_unit_result s pos =
  let u, pos = get_uint s pos in
  let entries, pos =
    get_list
      (fun pos ->
        let rank, p = get_uint s pos in
        let f, p = get_failure s p in
        ((rank, f), p))
      s pos
  in
  let witnesses, pos = get_list (get_witness s) s pos in
  ({ r_unit = u; r_entries = entries; r_witnesses = witnesses }, pos)

(* ------------------------------------------------------------------ *)
(* Frames: length prefix + checksum                                    *)
(* ------------------------------------------------------------------ *)

(* Adler-32 over the payload.  The frame layout is
   [len:4 LE][payload:len][adler:4 LE]; a checkpoint record cut short by
   SIGKILL either truncates inside the length/payload (detected by EOF)
   or corrupts the payload (detected by the checksum), so a resumed run
   can skip the torn tail instead of trusting garbage. *)
(* Classic NMAX batching: 5552 is the largest run for which the 63-bit
   accumulators cannot overflow, so the expensive mod runs once per
   chunk instead of once per byte.  This is the per-byte cost of every
   frame on both sides of the gdpd wire, so it is worth the care. *)
let adler32 s =
  let a = ref 1 and b = ref 0 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let stop = Stdlib.min n (!i + 5552) in
    for j = !i to stop - 1 do
      a := !a + Char.code (String.unsafe_get s j);
      b := !b + !a
    done;
    a := !a mod 65521;
    b := !b mod 65521;
    i := stop
  done;
  (!b lsl 16) lor !a

let le32 n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

let read_le32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame payload = le32 (String.length payload) ^ payload ^ le32 (adler32 payload)

let frame_overhead = 8

let read_frame s pos =
  let n = String.length s in
  if pos + 4 > n then None
  else begin
    let len = read_le32 s pos in
    if len < 0 || pos + 4 + len + 4 > n then None
    else begin
      let payload = String.sub s (pos + 4) len in
      let crc = read_le32 s (pos + 4 + len) in
      if adler32 payload <> crc then None
      else Some (payload, pos + 4 + len + 4)
    end
  end

(* Channel-level framing for gdpd's connections and its client; a
   reader that holds bytes in its own buffer parses them with
   {!read_frame} instead. *)
let output_frame oc payload =
  (* three writes instead of [frame]'s concatenation: the payload is
     never copied, only streamed through the channel buffer *)
  output_string oc (le32 (String.length payload));
  output_string oc payload;
  output_string oc (le32 (adler32 payload));
  flush oc

let input_frame ?(max_len = Sys.max_string_length) ic =
  match really_input_string ic 4 with
  | exception End_of_file -> None
  | hdr -> (
    let len = read_le32 hdr 0 in
    if len > max_len then
      raise
        (Corrupt
           (Printf.sprintf "frame of %d bytes over the %d-byte cap" len max_len));
    match really_input_string ic len with
    | exception End_of_file -> None
    | payload -> (
      match really_input_string ic 4 with
      | exception End_of_file -> None
      | crc ->
        if adler32 payload <> read_le32 crc 0 then
          raise (Corrupt "frame checksum mismatch")
        else Some payload))
