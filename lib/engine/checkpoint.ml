(* Out-of-core checkpointing for exhaustive verification.

   File layout:

     "gdpn-ckpt 1\n"
     [frame: header]          pins the verification spec
     [frame: unit_result]*    one appended per drained work unit

   Every frame is length-prefixed and checksummed (Codec.frame), and each
   append is a single buffered write followed by a flush — so a run
   killed at any instant leaves at worst one torn trailing frame, which
   {!load} detects and discards.  A resumed run replays the recorded
   per-unit results into the deterministic rank merge and only processes
   the missing units; because recorded entries are capped at the run's
   [max_failures] and pruned entries are provably outside every merged
   report, the resumed report is byte-identical to an uninterrupted
   one. *)

module Metrics = Gdpn_obs.Metrics

let m_units_checkpointed = Metrics.counter "verify.units_checkpointed"

type header = {
  h_digest : string;  (** instance digest (Certify.digest) *)
  h_model : int;  (** Fault_model.id; 0 = the node model *)
  h_orbit : bool;  (** orbit-reduced enumeration *)
  h_splice : bool;  (** splice-first chains (informational) *)
  h_max_failures : int;  (** per-unit entry cap; the merge's cap *)
  h_usize : int;  (** fault universe size *)
  h_k : int;  (** max fault-set size *)
  h_nunits : int;  (** canonical unit count *)
  h_universe : int list option;  (** restricted universe, if any *)
}

let magic = "gdpn-ckpt 1\n"

let encode_header h =
  let buf = Buffer.create 64 in
  Codec.put_string buf h.h_digest;
  Codec.put_uint buf h.h_model;
  Codec.put_uint buf (if h.h_orbit then 1 else 0);
  Codec.put_uint buf (if h.h_splice then 1 else 0);
  Codec.put_uint buf h.h_max_failures;
  Codec.put_uint buf h.h_usize;
  Codec.put_uint buf h.h_k;
  Codec.put_uint buf h.h_nunits;
  (* 0 for the whole universe, else 1 + the length, then the elements. *)
  (match h.h_universe with
  | None -> Codec.put_uint buf 0
  | Some l ->
    Codec.put_uint buf (List.length l + 1);
    List.iter (Codec.put_uint buf) l);
  Buffer.contents buf

let decode_header s =
  let h_digest, p = Codec.get_string s 0 in
  let h_model, p = Codec.get_uint s p in
  let orbit, p = Codec.get_uint s p in
  let h_orbit = orbit <> 0 in
  let splice, p = Codec.get_uint s p in
  let h_max_failures, p = Codec.get_uint s p in
  let h_usize, p = Codec.get_uint s p in
  let h_k, p = Codec.get_uint s p in
  let h_nunits, p = Codec.get_uint s p in
  let n, p = Codec.get_uint s p in
  let p = ref p in
  let h_universe =
    if n = 0 then None
    else
      Some
        (List.init (n - 1) (fun _ ->
             let v, next = Codec.get_uint s !p in
             p := next;
             v))
  in
  {
    h_digest;
    h_model;
    h_orbit;
    h_splice = splice <> 0;
    h_max_failures;
    h_usize;
    h_k;
    h_nunits;
    h_universe;
  }

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* The mutex serializes appends from concurrent domains; each record is
   one [output_string] + [flush], so records never interleave and the
   file grows frame-atomically. *)
type writer = { w_oc : out_channel; w_lock : Mutex.t }

let create ~path header =
  let oc = open_out_bin path in
  output_string oc magic;
  output_string oc (Codec.frame (encode_header header));
  flush oc;
  { w_oc = oc; w_lock = Mutex.create () }

let open_append ~path =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  { w_oc = oc; w_lock = Mutex.create () }

let append w (r : Codec.unit_result) =
  let buf = Buffer.create 64 in
  Codec.put_unit_result buf r;
  let frame = Codec.frame (Buffer.contents buf) in
  Mutex.lock w.w_lock;
  output_string w.w_oc frame;
  flush w.w_oc;
  Mutex.unlock w.w_lock;
  Metrics.incr m_units_checkpointed

let close w = close_out w.w_oc

(* ------------------------------------------------------------------ *)
(* Loader                                                              *)
(* ------------------------------------------------------------------ *)

type loaded = {
  l_header : header;
  l_results : (int, Codec.unit_result) Hashtbl.t;
  l_duplicates : int;  (** re-records of an already-loaded unit, dropped *)
  l_torn_bytes : int;  (** trailing bytes discarded (interrupted append) *)
}

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error "checkpoint truncated"
  | contents -> (
    let mlen = String.length magic in
    if
      String.length contents < mlen
      || String.sub contents 0 mlen <> magic
    then Error "not a gdpn checkpoint file"
    else
      match Codec.read_frame contents mlen with
      | None -> Error "checkpoint header truncated"
      | Some (hpayload, pos) -> (
        match decode_header hpayload with
        | exception Codec.Corrupt e -> Error ("bad checkpoint header: " ^ e)
        | header ->
          let results = Hashtbl.create 256 in
          let duplicates = ref 0 in
          let pos = ref pos in
          let ok = ref true in
          while !ok do
            match Codec.read_frame contents !pos with
            | None -> ok := false
            | Some (payload, next) -> (
              match Codec.get_unit_result payload 0 with
              | exception Codec.Corrupt _ -> ok := false
              | r, _ ->
                (* First record wins: a unit's result is deterministic,
                   so a duplicate (e.g. a kill between append and
                   scheduler bookkeeping, then a re-run) carries no new
                   information and must not feed the merge twice. *)
                if Hashtbl.mem results r.Codec.r_unit then incr duplicates
                else Hashtbl.replace results r.Codec.r_unit r;
                pos := next)
          done;
          Ok
            {
              l_header = header;
              l_results = results;
              l_duplicates = !duplicates;
              l_torn_bytes = String.length contents - !pos;
            }))

let check_header ~expected (h : header) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if h.h_digest <> expected.h_digest then
    err "checkpoint is for a different instance"
  else if h.h_model <> expected.h_model then
    err "checkpoint is for fault model %d, run uses %d" h.h_model
      expected.h_model
  else if h.h_orbit <> expected.h_orbit then
    err "checkpoint %s orbit reduction, run %s"
      (if h.h_orbit then "uses" else "does not use")
      (if expected.h_orbit then "does" else "does not")
  else if h.h_max_failures <> expected.h_max_failures then
    err "checkpoint max_failures %d, run uses %d" h.h_max_failures
      expected.h_max_failures
  else if h.h_usize <> expected.h_usize || h.h_k <> expected.h_k then
    err "checkpoint universe (%d, k=%d) does not match run (%d, k=%d)"
      h.h_usize h.h_k expected.h_usize expected.h_k
  else if h.h_universe <> expected.h_universe then
    err "checkpoint restricts the fault universe differently from the run"
  else if h.h_nunits <> expected.h_nunits then
    err "checkpoint has %d work units, run decomposes into %d" h.h_nunits
      expected.h_nunits
  else Ok ()
