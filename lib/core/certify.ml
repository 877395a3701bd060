module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Auto = Gdpn_graph.Auto
module Metrics = Gdpn_obs.Metrics

(* One per record written. *)
let m_records_streamed = Metrics.counter "certify.records_streamed"

let digest inst = Digest.to_hex (Digest.string (Serial.to_string inst))

let magic = "gdpn-cert 6\n"

(* lib/core cannot see the engine codec (dependency direction), and a
   certificate needs nothing but unsigned varints. *)
let rec put_uint oc n =
  if n < 0x80 then output_byte oc n
  else begin
    output_byte oc (n land 0x7f lor 0x80);
    put_uint oc (n lsr 7)
  end

let put_string oc s =
  put_uint oc (String.length s);
  output_string oc s

(* The writer is a drain of the verification task, splicing, on the
   calling domain: the witness sink streams each record as the task
   checks its set, so memory is the task and its chain, never the
   records. *)
let write ?solve ?symmetry model oc =
  let inst = Fault_model.instance model in
  let gens = match symmetry with None -> [] | Some g -> Auto.generators g in
  let task = Verify.Task.exhaustive_model ?solve ?symmetry model in
  output_string oc magic;
  put_string oc (digest inst);
  put_string oc (Fault_model.name model);
  put_uint oc (List.length gens);
  List.iter (Array.iter (put_uint oc)) gens;
  let witness { Verify.w_set = set; w_outcome; _ } =
    match w_outcome with
    | Reconfig.Pipeline p ->
      let len = Array.length set in
      put_uint oc len;
      for i = 0 to len - 1 do
        put_uint oc (if i = 0 then set.(0) else set.(i) - set.(i - 1) - 1)
      done;
      put_uint oc (List.length p.Pipeline.nodes);
      List.iter (put_uint oc) p.Pipeline.nodes;
      Metrics.incr m_records_streamed
    | Reconfig.No_pipeline | Reconfig.Gave_up ->
      failwith
        (Printf.sprintf "Certify.write: fault set %s has no pipeline"
           (Fault_model.describe model (Array.to_list set)))
  in
  let process = Verify.Task.processor task in
  for u = 0 to Verify.Task.nunits task - 1 do
    process ~witness ~record:(fun ~rank:_ _ -> ()) ~cutoff:(fun () -> max_int) u
  done;
  flush oc

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* The certificate channel, read through a buffer of our own: one
   [input] per 64 KiB instead of a locked channel call per byte. *)
type source = {
  ic : in_channel;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let at_end src =
  src.pos = src.len
  &&
  (src.len <- input src.ic src.buf 0 (Bytes.length src.buf);
   src.pos <- 0;
   src.len = 0)

let byte src =
  if at_end src then bad "truncated certificate";
  let b = Bytes.get src.buf src.pos in
  src.pos <- src.pos + 1;
  Char.code b

(* A varint in [0, below), in its one shortest encoding. *)
let get_uint src ~below what =
  let rec go acc shift =
    if shift > 56 then bad "%s: varint too long" what;
    let b = byte src in
    if b = 0 && shift > 0 then bad "%s: varint not in shortest form" what;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  let v = go 0 0 in
  if v < 0 || v >= below then bad "%s: %d out of range" what v;
  v

let get_bytes src n = String.init n (fun _ -> Char.chr (byte src))

let get_string src ~max what =
  get_bytes src (get_uint src ~below:(max + 1) what)

(* A node permutation is solvability-preserving when it is a graph
   automorphism that either keeps every node's kind or swaps the input
   and output classes wholesale (a reversal): a pipeline then maps to a
   pipeline. *)
let kind_compatible inst p =
  let kind v = Instance.kind_of inst v in
  let reversed = function
    | Label.Input -> Label.Output
    | Label.Output -> Label.Input
    | Label.Processor -> Label.Processor
  in
  let maps f =
    let ok = ref true in
    Array.iteri
      (fun v img -> if not (Label.equal (kind img) (f (kind v))) then ok := false)
      p;
    !ok
  in
  maps Fun.id || maps reversed

let check_source inst src =
  (* formats 1 to 5 began with a header line of the same length *)
  (match get_bytes src (String.length magic) with
  | line when line = magic -> ()
  | line when String.starts_with ~prefix:"gdpn-cert " line ->
    bad "certificate format %s is no longer accepted: regenerate it with \
         `gdp certify`"
      (String.trim (String.sub line 10 (String.length line - 10)))
  | _ -> bad "not a gdpn certificate");
  if get_string src ~max:64 "digest" <> digest inst then
    bad "certificate is for a different instance";
  let name = get_string src ~max:16 "model" in
  let model =
    match Fault_model.of_name inst name with
    | Some m -> m
    | None -> bad "unknown fault model %S" name
  in
  let order = Instance.order inst in
  let gens =
    List.init (get_uint src ~below:max_int "generator count") (fun i ->
        let p =
          Array.init order (fun _ -> get_uint src ~below:order "generator")
        in
        if
          not
            (Auto.is_automorphism inst.Instance.graph p && kind_compatible inst p)
        then bad "generator %d is not a solvability-preserving automorphism" i;
        p)
  in
  (* The group acts on the model's universe; universe indices below the
     order are the nodes' own elements, so an element's images of them
     are its node permutation. *)
  let group =
    Fault_model.induced_symmetry model (Auto.of_generators ~degree:order gens)
  in
  let usize = Fault_model.size model and k = Fault_model.max_faults model in
  let total = Combinat.count_up_to usize k in
  let seen = Bitset.create total in
  let buf = Array.make k 0 and mask = Bitset.create usize in
  let records = ref 0 and covered = ref 0 in
  while not (at_end src) do
    let len = get_uint src ~below:(k + 1) "set size" in
    let prev = ref (-1) in
    for i = 0 to len - 1 do
      let e = !prev + 1 + get_uint src ~below:(usize - !prev - 1) "fault" in
      buf.(i) <- e;
      prev := e
    done;
    let set = Array.sub buf 0 len in
    let describe () = Fault_model.describe model (Array.to_list set) in
    if Auto.canonical_set group set <> set then
      bad "record %d: %s is not the least member of its orbit" !records
        (describe ());
    let rank = Combinat.rank_of_subset usize set len in
    if Bitset.mem seen rank then
      bad "record %d: %s is certified twice" !records (describe ());
    Bitset.add seen rank;
    let nodes =
      List.init
        (get_uint src ~below:(order + 1) "witness length")
        (fun _ -> get_uint src ~below:order "witness node")
    in
    (* The witness, carried by every group element onto the member it
       maps the set to: each member of the orbit is checked against the
       paper's definition alone.  The elements fixing the set are its
       stabilizer, whose size gives the orbit's. *)
    let fixing = ref 0 in
    for e = 0 to Auto.order group - 1 do
      Bitset.clear mask;
      for i = 0 to len - 1 do
        Bitset.add mask (Auto.image group e set.(i))
      done;
      if Array.for_all (Bitset.mem mask) set then incr fixing;
      match
        Fault_model.validate model ~faults:mask
          (List.map (Auto.image group e) nodes)
      with
      | Ok _ -> ()
      | Error why ->
        bad "witness for %s fails on orbit member %s: %s" (describe ())
          (Fault_model.describe model (Bitset.elements mask))
          why
    done;
    incr records;
    covered := !covered + (Auto.order group / !fixing)
  done;
  if !covered <> total then
    bad "orbits cover %d fault sets, the %s model has %d" !covered name total;
  !covered

let check inst ic =
  let src = { ic; buf = Bytes.create 65536; pos = 0; len = 0 } in
  match check_source inst src with
  | count -> Ok count
  | exception Bad msg -> Error msg
