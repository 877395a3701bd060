(* Shared helpers for the test suites. *)

(* The first index of [needle] in [haystack]; raises [Not_found]. *)
let find_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    if i + nl > hl then raise Not_found
    else if String.sub haystack i nl = needle then i
    else go (i + 1)
  in
  go 0

let contains_substring haystack needle =
  match find_substring haystack needle with
  | _ -> true
  | exception Not_found -> false

(* An independent reference verifier for Verify's work units: every
   fault set of size <= k drawn from [universe] (default: the whole
   universe) in canonical order — or, under a nontrivial induced
   [symmetry], Auto.fault_orbits' representatives in array order, each
   counted at its orbit size — checked from scratch one by one, stopping
   after [max_failures] failures.  No units, ranks, chains or merges. *)
let reference_verify ?(max_failures = 5) ?universe ?symmetry model =
  let open Gdpn_core in
  let module Auto = Gdpn_graph.Auto in
  let k = Fault_model.max_faults model in
  let checked = ref 0 and calls = ref 0 and failures = ref [] in
  let exception Stop in
  let check faults size =
    checked := !checked + size;
    incr calls;
    match Verify.check_model_set model faults with
    | Ok _ -> ()
    | Error reason ->
      failures := { Verify.faults; reason; orbit = size } :: !failures;
      if List.length !failures >= max 1 max_failures then raise Stop
  in
  (try
     match Option.map (Fault_model.induced_symmetry model) symmetry with
     | Some g when not (Auto.is_trivial g) ->
       Array.iter
         (fun { Auto.set; size } -> check (Array.to_list set) size)
         (Auto.fault_orbits ?universe:(Option.map Array.of_list universe) g
            ~max_size:k)
     | Some _ | None ->
       let elts =
         match universe with
         | Some l -> Array.of_list l
         | None -> Array.init (Fault_model.size model) Fun.id
       in
       Gdpn_graph.Combinat.iter_subsets_up_to (Array.length elts) k
         (fun buf len -> check (List.init len (fun i -> elts.(buf.(i)))) 1)
   with Stop -> ());
  let failures = List.rev !failures in
  {
    Verify.fault_sets_checked = !checked;
    solver_calls = !calls;
    failures;
    gave_up =
      List.fold_left
        (fun acc f ->
          if f.Verify.reason = "solver gave up" then acc + f.Verify.orbit
          else acc)
        0 failures;
  }

(* [reference_verify] over the node model. *)
let reference_exhaustive ?max_failures ?universe ?symmetry inst =
  reference_verify ?max_failures ?universe ?symmetry
    (Gdpn_core.Fault_model.node inst)

(* Certificates go through files: [Certify] writes to and reads from
   channels, and the tests tamper with the bytes in between. *)
let with_temp_file f =
  let path = Filename.temp_file "gdpn_cert" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let certificate ?symmetry model =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path
        (Gdpn_core.Certify.write ?symmetry model);
      In_channel.with_open_bin path In_channel.input_all)

let check_certificate inst bytes =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      In_channel.with_open_bin path (Gdpn_core.Certify.check inst))

(* The certificate's unsigned LEB128 integer at [!pos], advancing
   [pos] past it. *)
let read_uint s pos =
  let rec go acc shift =
    let b = Char.code s.[!pos] in
    incr pos;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  go 0 0

let add_uint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n

(* A certificate cut into its header and its records, read by the
   layout certify.mli documents, so tests can drop, repeat and reorder
   whole records. *)
let certificate_records ~order cert =
  let pos = ref (String.index cert '\n' + 1) in
  let uint () = read_uint cert pos in
  let skip n =
    for _ = 1 to n do
      ignore (uint ())
    done
  in
  for _ = 1 to 2 do
    (* the digest, then the model name *)
    let len = uint () in
    pos := !pos + len
  done;
  skip (uint () * order);
  let header = String.sub cert 0 !pos in
  let records = ref [] in
  while !pos < String.length cert do
    let start = !pos in
    skip (uint ());
    skip (uint ());
    records := String.sub cert start (!pos - start) :: !records
  done;
  (header, List.rev !records)

(* [cert] with each record's witness replaced by [witness set]: the
   pipeline another solver gives for the record's fault set (its sorted
   universe indices), so that the checker judges that solver's plans. *)
let rewitness ~order cert witness =
  let header, records = certificate_records ~order cert in
  let buf = Buffer.create (String.length cert) in
  Buffer.add_string buf header;
  List.iter
    (fun r ->
      let pos = ref 0 in
      let len = read_uint r pos in
      let set = Array.make len 0 in
      for i = 0 to len - 1 do
        let d = read_uint r pos in
        set.(i) <- (if i = 0 then d else set.(i - 1) + d + 1)
      done;
      Buffer.add_string buf (String.sub r 0 !pos);
      let nodes = witness set in
      add_uint buf (List.length nodes);
      List.iter (add_uint buf) nodes)
    records;
  Buffer.contents buf
