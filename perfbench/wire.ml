(* The benchmark's gdpd client: one lockstep connection.  The timed
   path writes pre-encoded request frames and walks each response in a
   reused buffer without allocating (the clock is a noalloc external,
   varints are read through a module-level cursor), so client-side
   collections never land inside a measured round trip. *)

module Codec = Gdpn_engine.Codec
module Protocol = Gdpn_server.Protocol

type t = { fd : Unix.file_descr; mutable buf : Bytes.t }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create 65536 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rec write_all fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    write_all fd s (pos + n) (len - n)
  end

let rec read_exactly fd buf pos len =
  if len > 0 then begin
    let n = Unix.read fd buf pos len in
    if n = 0 then failwith "gdpd closed the connection";
    read_exactly fd buf (pos + n) (len - n)
  end

let u8 b i = Char.code (Bytes.unsafe_get b i)
let le32 b i = u8 b i lor (u8 b (i + 1) lsl 8) lor (u8 b (i + 2) lsl 16) lor (u8 b (i + 3) lsl 24)

(* Adler-32 of buf[0..len), the checksum Codec.frame appends. *)
let adler32 b len =
  let a = ref 1 and s = ref 0 and i = ref 0 in
  while !i < len do
    let stop = min len (!i + 5552) in
    for j = !i to stop - 1 do
      a := !a + u8 b j;
      s := !s + !a
    done;
    a := !a mod 65521;
    s := !s mod 65521;
    i := stop
  done;
  (!s lsl 16) lor !a

(* Read one response frame; its payload is left in [t.buf.[0..len)]. *)
let read_frame t =
  read_exactly t.fd t.buf 0 4;
  let len = le32 t.buf 0 in
  if len > Bytes.length t.buf - 4 then t.buf <- Bytes.create (2 * (len + 4));
  read_exactly t.fd t.buf 0 (len + 4);
  if le32 t.buf len <> adler32 t.buf len then failwith "corrupt response frame";
  len

let cursor = ref 0

(* Top-level, so no closure is allocated per varint. *)
let rec varint_from b acc shift =
  let c = Char.code (Bytes.get b !cursor) in
  incr cursor;
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c land 0x80 = 0 then acc else varint_from b acc (shift + 7)

let varint b = varint_from b 0 0

(* Outcomes of the last walked response: all, and those that are plans. *)
let outcomes = ref 0
let plans = ref 0

(* Walk a Batch response payload structurally.  Sets [outcomes] and
   [plans]; an error response or a malformed payload leaves both 0. *)
let walk t len =
  outcomes := 0;
  plans := 0;
  let b = t.buf in
  if len > 0 && Bytes.get b 0 = 'B' then
    try
      cursor := 1;
      let count = varint b in
      let p = ref 0 in
      for _ = 1 to count do
        match Bytes.get b !cursor with
        | '\000' ->
          incr cursor;
          for _ = 1 to varint b do
            ignore (varint b)
          done;
          incr p
        | '\001' | '\002' -> incr cursor
        | _ -> failwith "bad outcome tag"
      done;
      if !cursor = len then begin
        outcomes := count;
        plans := !p
      end
    with Failure _ | Invalid_argument _ -> ()

(* One lockstep round trip on a pre-encoded frame. *)
let round_trip t frame =
  write_all t.fd frame 0 (String.length frame);
  read_frame t

(* A full-decode round trip, for the untimed requests. *)
let request t req =
  let len = round_trip t (Codec.frame (Protocol.encode_request req)) in
  Protocol.decode_response (Bytes.sub_string t.buf 0 len)

(* Position just after [needle] in [json]. *)
let after json needle =
  let nl = String.length needle and jl = String.length json in
  let rec find i =
    if i + nl > jl then None
    else if String.sub json i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  find 0

(* A counter from a Metrics_dump JSON snapshot (0 when absent). *)
let json_int json key =
  match after json ("\"" ^ key ^ "\": ") with
  | None -> 0
  | Some i -> Scanf.sscanf (String.sub json i (String.length json - i)) "%d" Fun.id

let metrics t =
  match request t Protocol.Metrics_dump with
  | Protocol.Json s -> s
  | _ -> failwith "gdpd: unexpected reply to Metrics_dump"

(* The server's per-frame service histogram: (count, sum_ns). *)
let service_hist json =
  match after json "\"server.request_ns\": {" with
  | None -> (0, 0)
  | Some i ->
    Scanf.sscanf
      (String.sub json i (String.length json - i))
      " \"count\": %d, \"sum\": %d" (fun c s -> (c, s))
