(* Precompiled plan warehouse: a read-only, mmap-backed store of solved
   reconfiguration plans, serving as the L2 tier under the in-RAM
   Shard_cache (L1) — lookup order is L1 -> store -> full solve.

   File layout ("gdpn-plan 1\n" magic, then binary):

     [frame: header]     digest / model / mode / universe / geometry
     [index]             nslots x 8-byte LE absolute record offsets,
                         an open-addressed (linear-probe) hash table
                         over canonical fault-set keys; 0 = empty slot
     [frame: record]*    one per stored orbit representative

   Record payload:

     varint setlen, [setlen] varints    the fault set, sorted ascending
     varint tag                         0 = No_pipeline, 1 = Pipeline
     tag 1: varint nnodes, [nnodes] varints   the plan's node sequence

   (the outcome's bytes are Codec.put_outcome's, as in a checkpoint's
   witnesses)

   Every frame is length-prefixed and Adler-32 checksummed
   (Codec.frame), so truncation and byte tampering are detected at the
   frame they corrupt: a bad header fails [open_path] with a clean
   error, a bad record fails its lookup (the engine then falls back to
   the solve path) and fails [validate].  The store can never serve a
   plan whose bytes were not written by the compiler.

   In orbit mode (the node fault model under a nontrivial symmetry
   group) only one record per automorphism orbit is stored, keyed on the
   orbit's min-lex representative; the engine canonicalizes a queried
   set and transports the stored plan back through the automorphism
   (Auto.canonical_with_transport), so the store scales with orbit
   count, not fault-set count.  Flat mode (generalized fault models, or
   trivial groups) stores one record per fault set. *)

module Reconfig = Gdpn_core.Reconfig
module Pipeline = Gdpn_core.Pipeline

let magic = "gdpn-plan 1\n"

(* 62-bit DJB2-xor over the canonical key's 2-bytes-per-element
   encoding.  Deliberately not [Hashtbl.hash]: the file format must pin
   the slot layout independently of the runtime's hash internals. *)
let mask62 = (1 lsl 62) - 1

let hash_set set =
  let h = ref 5381 in
  Array.iter
    (fun v ->
      h := (!h * 33) lxor (v land 0xff) land mask62;
      h := (!h * 33) lxor ((v lsr 8) land 0xff) land mask62)
    set;
  !h

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = {
  w_digest : string;
  w_model : int;
  w_orbit : bool;
  w_usize : int;
  w_order : int;
  w_max_size : int;
  w_records : Buffer.t;  (* concatenated record frames *)
  mutable w_keys : (int array * int) list;  (* (set, relative offset), newest first *)
  w_seen : (string, unit) Hashtbl.t;
  mutable w_nrecords : int;
  mutable w_total_sets : int;
  mutable w_gave_up : int;
}

let key_string set =
  let len = Array.length set in
  let b = Bytes.create (2 * len) in
  for i = 0 to len - 1 do
    let v = set.(i) in
    Bytes.set b (2 * i) (Char.chr (v land 0xff));
    Bytes.set b ((2 * i) + 1) (Char.chr ((v lsr 8) land 0xff))
  done;
  Bytes.unsafe_to_string b

let writer ~digest ~model_id ~orbit ~usize ~order ~max_size =
  if usize < 0 || usize > 0xffff then
    invalid_arg "Plan_store.writer: universe size out of range";
  {
    w_digest = digest;
    w_model = model_id;
    w_orbit = orbit;
    w_usize = usize;
    w_order = order;
    w_max_size = max_size;
    w_records = Buffer.create 4096;
    w_keys = [];
    w_seen = Hashtbl.create 1024;
    w_nrecords = 0;
    w_total_sets = 0;
    w_gave_up = 0;
  }

(* Record one solved representative.  [count] is the number of fault
   sets the record covers (its orbit size; 1 in flat mode).  [Gave_up]
   outcomes are not stored — a budget-starved compile must read as a
   store miss, never as a cachable verdict — but are tallied so the
   compiler can report them. *)
let add w ~set ~count outcome =
  let len = Array.length set in
  if len > w.w_max_size then invalid_arg "Plan_store.add: set too large";
  for i = 0 to len - 1 do
    if set.(i) < 0 || set.(i) >= w.w_usize then
      invalid_arg "Plan_store.add: element outside the universe";
    if i > 0 && set.(i - 1) >= set.(i) then
      invalid_arg "Plan_store.add: set not sorted"
  done;
  match outcome with
  | Reconfig.Gave_up -> w.w_gave_up <- w.w_gave_up + 1
  | outcome ->
    let key = key_string set in
    if Hashtbl.mem w.w_seen key then
      invalid_arg "Plan_store.add: duplicate key";
    Hashtbl.replace w.w_seen key ();
    let buf = Buffer.create 32 in
    Codec.put_uint buf len;
    Array.iter (fun v -> Codec.put_uint buf v) set;
    Codec.put_outcome buf outcome;
    let off = Buffer.length w.w_records in
    Buffer.add_string w.w_records (Codec.frame (Buffer.contents buf));
    w.w_keys <- (Array.copy set, off) :: w.w_keys;
    w.w_nrecords <- w.w_nrecords + 1;
    w.w_total_sets <- w.w_total_sets + Stdlib.max 1 count

let gave_up w = w.w_gave_up

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let encode_header ~digest ~model ~orbit ~usize ~order ~max_size ~nslots
    ~nrecords ~total_sets =
  let buf = Buffer.create 64 in
  Codec.put_string buf digest;
  Codec.put_uint buf model;
  Codec.put_uint buf (if orbit then 1 else 0);
  Codec.put_uint buf usize;
  Codec.put_uint buf order;
  Codec.put_uint buf max_size;
  Codec.put_uint buf nslots;
  Codec.put_uint buf nrecords;
  Codec.put_uint buf total_sets;
  Buffer.contents buf

(* Assemble and atomically publish the store: the index and records are
   written to [path ^ ".part"] and renamed into place, so an interrupted
   compile never leaves a half-written store behind (a compile resumes
   from its Checkpoint file, not from the store). *)
let write w ~path =
  let nslots = next_pow2 (Stdlib.max 8 (2 * w.w_nrecords)) 8 in
  let header =
    Codec.frame
      (encode_header ~digest:w.w_digest ~model:w.w_model ~orbit:w.w_orbit
         ~usize:w.w_usize ~order:w.w_order ~max_size:w.w_max_size ~nslots
         ~nrecords:w.w_nrecords ~total_sets:w.w_total_sets)
  in
  let base = String.length magic + String.length header + (8 * nslots) in
  let slots = Array.make nslots 0 in
  let slot_mask = nslots - 1 in
  List.iter
    (fun (set, rel) ->
      let s = ref (hash_set set land slot_mask) in
      while slots.(!s) <> 0 do
        s := (!s + 1) land slot_mask
      done;
      slots.(!s) <- base + rel)
    w.w_keys;
  let part = path ^ ".part" in
  let oc = open_out_bin part in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_string oc header;
      let b = Bytes.create 8 in
      Array.iter
        (fun off ->
          Bytes.set_int64_le b 0 (Int64.of_int off);
          output_bytes oc b)
        slots;
      Buffer.output_buffer oc w.w_records);
  Sys.rename part path

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type map =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  map : map;
  size : int;
  digest : string;
  model_id : int;
  orbit : bool;
  usize : int;
  order : int;
  max_size : int;
  nslots : int;
  nrecords : int;
  total_sets : int;
  index_off : int;
}

let digest t = t.digest
let model_id t = t.model_id
let orbit_compressed t = t.orbit
let max_size t = t.max_size
let records t = t.nrecords
let total_sets t = t.total_sets
let mmap_bytes t = t.size

let sub_string (map : map) off len =
  String.init len (fun i -> Bigarray.Array1.unsafe_get map (off + i))

let read_u32le (map : map) off =
  Char.code map.{off}
  lor (Char.code map.{off + 1} lsl 8)
  lor (Char.code map.{off + 2} lsl 16)
  lor (Char.code map.{off + 3} lsl 24)

let read_u64le (map : map) off =
  let lo = read_u32le map off in
  let hi = read_u32le map (off + 4) in
  lo lor (hi lsl 32)

(* Extract the checksummed frame at [off], reusing Codec's validation on
   a copied slice (records are tens of bytes; the copy is cheaper than a
   second Bigarray-aware codec).  Returns the payload, or None when the
   bytes at [off] are out of bounds, truncated or fail the checksum. *)
let frame_at t off =
  if off < 0 || off + Codec.frame_overhead > t.size then None
  else
    let len = read_u32le t.map off in
    if len < 0 || off + Codec.frame_overhead + len > t.size then None
    else
      match
        Codec.read_frame (sub_string t.map off (Codec.frame_overhead + len)) 0
      with
      | Some (payload, _) -> Some payload
      | None -> None

let decode_record payload =
  let setlen, pos = Codec.get_uint payload 0 in
  if setlen < 0 || setlen > String.length payload then
    raise (Codec.Corrupt "plan store: bad set length");
  let pos = ref pos in
  let set =
    Array.init setlen (fun _ ->
        let v, p = Codec.get_uint payload !pos in
        pos := p;
        v)
  in
  let outcome, _ = Codec.get_outcome payload !pos in
  (set, outcome)

let open_path ~path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd -> (
    let size = (Unix.fstat fd).Unix.st_size in
    let map =
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          if size = 0 then None
          else
            Some
              (Bigarray.array1_of_genarray
                 (Unix.map_file fd Bigarray.char Bigarray.c_layout false
                    [| size |])))
    in
    match map with
    | None -> Error (path ^ ": not a gdpn plan store (empty file)")
    | Some map -> (
      let mlen = String.length magic in
      if size < mlen || sub_string map 0 mlen <> magic then
        Error (path ^ ": not a gdpn plan store")
      else
        let t0 =
          {
            map;
            size;
            digest = "";
            model_id = 0;
            orbit = false;
            usize = 0;
            order = 0;
            max_size = 0;
            nslots = 0;
            nrecords = 0;
            total_sets = 0;
            index_off = 0;
          }
        in
        match frame_at t0 mlen with
        | None -> Error (path ^ ": plan store header corrupt or truncated")
        | Some payload -> (
          match
            let digest, p = Codec.get_string payload 0 in
            let model_id, p = Codec.get_uint payload p in
            let orbit, p = Codec.get_uint payload p in
            let usize, p = Codec.get_uint payload p in
            let order, p = Codec.get_uint payload p in
            let max_size, p = Codec.get_uint payload p in
            let nslots, p = Codec.get_uint payload p in
            let nrecords, p = Codec.get_uint payload p in
            let total_sets, _ = Codec.get_uint payload p in
            (digest, model_id, orbit <> 0, usize, order, max_size, nslots,
             nrecords, total_sets)
          with
          | exception Codec.Corrupt e ->
            Error (path ^ ": bad plan store header: " ^ e)
          | ( digest, model_id, orbit, usize, order, max_size, nslots,
              nrecords, total_sets ) ->
            let hlen = read_u32le map mlen + Codec.frame_overhead in
            let index_off = mlen + hlen in
            if nslots <= 0 || nslots land (nslots - 1) <> 0 then
              Error (path ^ ": plan store index size is not a power of two")
            else if nrecords > nslots then
              Error (path ^ ": plan store holds more records than slots")
            else if usize > 0xffff then
              Error (path ^ ": plan store universe too large")
            else if index_off + (8 * nslots) > size then
              Error (path ^ ": plan store index truncated")
            else
              Ok
                {
                  t0 with
                  digest;
                  model_id;
                  orbit;
                  usize;
                  order;
                  max_size;
                  nslots;
                  nrecords;
                  total_sets;
                  index_off;
                })))

(* The mapping lives until the GC collects the Bigarray; close is
   advisory (it only guards against accidental reuse of a detached
   handle in the caller's own bookkeeping). *)
let close (_ : t) = ()

(* Probe for the canonical sorted [set].  Any malformed byte met along
   the way — a record offset outside the file, a checksum failure, a
   truncated payload — reads as a miss: the engine then re-solves, so a
   degraded store can slow lookups down but can never corrupt them. *)
let lookup t set =
  let len = Array.length set in
  if len > t.max_size then None
  else if Array.exists (fun v -> v < 0 || v >= t.usize) set then None
  else begin
    let slot_mask = t.nslots - 1 in
    let rec probe s remaining =
      if remaining = 0 then None
      else
        let off = read_u64le t.map (t.index_off + (8 * s)) in
        if off = 0 then None
        else
          let next () = probe ((s + 1) land slot_mask) (remaining - 1) in
          match frame_at t off with
          | None -> None (* corrupt record: fail closed *)
          | Some payload -> (
            match decode_record payload with
            | exception Codec.Corrupt _ -> None
            | stored, outcome -> if stored = set then Some outcome else next ())
    in
    probe (hash_set set land slot_mask) t.nslots
  end

(* Full structural audit: every slot offset decodes to a well-formed
   record, record keys are sorted/in-range/unique, stored plans only
   name real nodes, and the record count matches the header.  Used by
   the compiler's final self-check and by the corruption tests. *)
let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let seen = Hashtbl.create (Stdlib.max 16 t.nrecords) in
  let rec walk s =
    if s >= t.nslots then Ok ()
    else
      let off = read_u64le t.map (t.index_off + (8 * s)) in
      if off = 0 then walk (s + 1)
      else
        match frame_at t off with
        | None -> err "slot %d: record frame corrupt or out of bounds" s
        | Some payload -> (
          match decode_record payload with
          | exception Codec.Corrupt e -> err "slot %d: %s" s e
          | set, outcome ->
            let sorted = ref true in
            Array.iteri
              (fun i v ->
                if v < 0 || v >= t.usize then sorted := false;
                if i > 0 && set.(i - 1) >= v then sorted := false)
              set;
            if not !sorted then err "slot %d: malformed fault set" s
            else if Array.length set > t.max_size then
              err "slot %d: fault set larger than the compiled bound" s
            else if Hashtbl.mem seen (key_string set) then
              err "slot %d: duplicate record key" s
            else begin
              Hashtbl.replace seen (key_string set) ();
              match outcome with
              | Reconfig.Gave_up -> err "slot %d: stored Gave_up verdict" s
              | Reconfig.Pipeline p
                when List.exists
                       (fun v -> v < 0 || v >= t.order)
                       p.Pipeline.nodes ->
                err "slot %d: plan names a node outside the instance" s
              | Reconfig.Pipeline _ | Reconfig.No_pipeline -> walk (s + 1)
            end)
  in
  match walk 0 with
  | Error _ as e -> e
  | Ok () ->
    if Hashtbl.length seen <> t.nrecords then
      err "index holds %d records, header declares %d" (Hashtbl.length seen)
        t.nrecords
    else Ok t.nrecords
