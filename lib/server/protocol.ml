(* Wire protocol for the gdpd plan-serving daemon.

   Every message is one [Engine.Codec] frame — [len:4 LE][payload]
   [adler32:4 LE], the checkpoint file's framing, reused verbatim.  The
   payload's first byte is the message tag; integers are LEB128 varints.
   See PROTOCOL.md for the normative description. *)

module Codec = Gdpn_engine.Codec

let version = 1
let max_batch = 1 lsl 16

let max_request_len ~order =
  let rec width n = if n < 0x80 then 1 else 1 + width (n lsr 7) in
  (* 'B', an instance id, the count, then [max_batch] masks of a length
     and at most [order] distinct elements below [order]; 10 bytes is
     the widest varint *)
  1 + 10 + width max_batch
  + (max_batch * (width order + (order * width (max 0 (order - 1)))))

(* Error codes (code 0 is reserved / never sent). *)
let err_bad_request = 1
let err_unknown_instance = 2
let err_bad_element = 3
let err_batch_too_large = 4
let err_shutdown_disabled = 5

type instance_info = { i_n : int; i_k : int; i_order : int }

type request =
  | Hello
  | Solve of { inst : int; faults : int list }
  | Batch of { inst : int; masks : int list list }
  | Metrics_dump
  | Shutdown

type outcome = Plan of int list | No_plan | Gave_up

type response =
  | Welcome of { version : int; instances : instance_info list }
  | Outcome of outcome
  | Outcomes of outcome list
  | Json of string
  | Ack
  | Error of { code : int; message : string }

exception Bad_message of int * string
(** Malformed payload, with the error code a server answers it with.
    Framing-level corruption raises {!Codec.Corrupt} instead. *)

(* -------------------- encoding -------------------- *)

let put_mask buf faults =
  Codec.put_uint buf (List.length faults);
  List.iter (Codec.put_uint buf) faults

let encode_request r =
  let buf = Buffer.create 32 in
  (match r with
  | Hello -> Buffer.add_char buf 'H'
  | Solve { inst; faults } ->
    Buffer.add_char buf 'S';
    Codec.put_uint buf inst;
    put_mask buf faults
  | Batch { inst; masks } ->
    Buffer.add_char buf 'B';
    Codec.put_uint buf inst;
    Codec.put_uint buf (List.length masks);
    List.iter (put_mask buf) masks
  | Metrics_dump -> Buffer.add_char buf 'M'
  | Shutdown -> Buffer.add_char buf 'X');
  Buffer.contents buf

let put_outcome buf = function
  | Plan nodes ->
    Buffer.add_char buf '\000';
    Codec.put_uint buf (List.length nodes);
    List.iter (Codec.put_uint buf) nodes
  | No_plan -> Buffer.add_char buf '\001'
  | Gave_up -> Buffer.add_char buf '\002'

let encode_response r =
  let buf = Buffer.create 64 in
  (match r with
  | Welcome { version; instances } ->
    Buffer.add_char buf 'W';
    Codec.put_uint buf version;
    Codec.put_uint buf (List.length instances);
    List.iter
      (fun i ->
        Codec.put_uint buf i.i_n;
        Codec.put_uint buf i.i_k;
        Codec.put_uint buf i.i_order)
      instances
  | Outcome o ->
    Buffer.add_char buf 'P';
    put_outcome buf o
  | Outcomes os ->
    Buffer.add_char buf 'B';
    Codec.put_uint buf (List.length os);
    List.iter (put_outcome buf) os
  | Json s ->
    Buffer.add_char buf 'J';
    Codec.put_string buf s
  | Ack -> Buffer.add_char buf 'O'
  | Error { code; message } ->
    Buffer.add_char buf 'E';
    Codec.put_uint buf code;
    Codec.put_string buf message);
  Buffer.contents buf

(* -------------------- decoding -------------------- *)

let fail code fmt = Printf.ksprintf (fun s -> raise (Bad_message (code, s))) fmt
let bad fmt = fail err_bad_request fmt
let too_large fmt = fail err_batch_too_large fmt

(* Codec decoders raise Corrupt on overlong varints; a truncated payload
   surfaces as an out-of-bounds string read (Invalid_argument).
   Normalise both to Bad_message so connection loops have one handler
   for "this peer is speaking garbage". *)
let get_uint s pos =
  try Codec.get_uint s pos
  with Codec.Corrupt m -> bad "%s" m | Invalid_argument _ -> bad "truncated message"

let get_string s pos =
  try Codec.get_string s pos
  with Codec.Corrupt m -> bad "%s" m | Invalid_argument _ -> bad "truncated message"

let get_mask s pos =
  let n, pos = get_uint s pos in
  if n > max_batch then too_large "mask too large (%d elements)" n;
  let rec go acc n pos =
    if n = 0 then (List.rev acc, pos)
    else
      let e, pos = get_uint s pos in
      go (e :: acc) (n - 1) pos
  in
  go [] n pos

let finish v pos payload =
  if pos <> String.length payload then bad "trailing bytes in message";
  v

let decode_request payload =
  if String.length payload = 0 then bad "empty message";
  match payload.[0] with
  | 'H' -> finish Hello 1 payload
  | 'S' ->
    let inst, pos = get_uint payload 1 in
    let faults, pos = get_mask payload pos in
    finish (Solve { inst; faults }) pos payload
  | 'B' ->
    let inst, pos = get_uint payload 1 in
    let count, pos = get_uint payload pos in
    if count > max_batch then too_large "batch too large (%d requests)" count;
    let rec go acc count pos =
      if count = 0 then (List.rev acc, pos)
      else
        let m, pos = get_mask payload pos in
        go (m :: acc) (count - 1) pos
    in
    let masks, pos = go [] count pos in
    finish (Batch { inst; masks }) pos payload
  | 'M' -> finish Metrics_dump 1 payload
  | 'X' -> finish Shutdown 1 payload
  | c -> bad "unknown request tag %C" c

let get_outcome payload pos =
  if pos >= String.length payload then bad "truncated outcome";
  match payload.[pos] with
  | '\000' ->
    let n, pos = get_uint payload (pos + 1) in
    let rec go acc n pos =
      if n = 0 then (Plan (List.rev acc), pos)
      else
        let v, pos = get_uint payload pos in
        go (v :: acc) (n - 1) pos
    in
    go [] n pos
  | '\001' -> (No_plan, pos + 1)
  | '\002' -> (Gave_up, pos + 1)
  | c -> bad "unknown outcome tag %C" c

let decode_response payload =
  if String.length payload = 0 then bad "empty message";
  match payload.[0] with
  | 'W' ->
    let version, pos = get_uint payload 1 in
    let count, pos = get_uint payload pos in
    let rec go acc count pos =
      if count = 0 then (List.rev acc, pos)
      else
        let i_n, pos = get_uint payload pos in
        let i_k, pos = get_uint payload pos in
        let i_order, pos = get_uint payload pos in
        go ({ i_n; i_k; i_order } :: acc) (count - 1) pos
    in
    let instances, pos = go [] count pos in
    finish (Welcome { version; instances }) pos payload
  | 'P' ->
    let o, pos = get_outcome payload 1 in
    finish (Outcome o) pos payload
  | 'B' ->
    let count, pos = get_uint payload 1 in
    if count > max_batch then too_large "batch too large (%d outcomes)" count;
    let rec go acc count pos =
      if count = 0 then (List.rev acc, pos)
      else
        let o, pos = get_outcome payload pos in
        go (o :: acc) (count - 1) pos
    in
    let os, pos = go [] count pos in
    finish (Outcomes os) pos payload
  | 'J' ->
    let s, pos = get_string payload 1 in
    finish (Json s) pos payload
  | 'O' -> finish Ack 1 payload
  | 'E' ->
    let code, pos = get_uint payload 1 in
    let message, pos = get_string payload pos in
    finish (Error { code; message }) pos payload
  | c -> bad "unknown response tag %C" c

let outcome_of_reconfig = function
  | Gdpn_core.Reconfig.Pipeline p -> Plan p.Gdpn_core.Pipeline.nodes
  | Gdpn_core.Reconfig.No_pipeline -> No_plan
  | Gdpn_core.Reconfig.Gave_up -> Gave_up

let equal_outcome a b =
  match (a, b) with
  | Plan x, Plan y -> List.equal Int.equal x y
  | No_plan, No_plan | Gave_up, Gave_up -> true
  | _ -> false

let pp_outcome ppf = function
  | Plan nodes ->
    Format.fprintf ppf "plan[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
         Format.pp_print_int)
      nodes
  | No_plan -> Format.pp_print_string ppf "no-plan"
  | Gave_up -> Format.pp_print_string ppf "gave-up"
