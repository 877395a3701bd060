(* In-memory spans for the traced run.  Each span is one layer's
   measurement over a batch of operations replayed through that layer's
   public function (or, for the daemon and client layers, taken from
   the live run).  [per_root] says how many of the span's operations one
   root operation performs (e.g. a Batch frame of 128 masks decodes 128
   masks), so every span converts to a cost per root operation.  A
   span's self time is its cost minus its children's: the part of the
   layer no narrower measurement explains.  Nothing is written out
   until the run prints its table. *)

type t = {
  name : string;
  parent : string option;
  ops : int;
  dur_ns : float;
  per_root : float;
}

let recorded : t list ref = ref []

(* Record a span; a second span of the same name adds its operations
   and time to the first, so one layer can be measured in several
   rounds. *)
let add ?parent ~per_root ~ops ~dur_ns name =
  if List.exists (fun s -> s.name = name) !recorded then
    recorded :=
      List.map
        (fun s -> if s.name = name then { s with ops = s.ops + ops; dur_ns = s.dur_ns +. dur_ns } else s)
        !recorded
  else recorded := { name; parent; ops; dur_ns; per_root } :: !recorded

(* Run [pass] (one sweep over [items] inputs) until at least [min_s]
   seconds have passed, and record the span. *)
let measure ?parent ?(min_s = 0.3) ~per_root ~items name pass =
  let t0 = Host.now_ns () in
  let deadline = t0 + int_of_float (min_s *. 1e9) in
  let passes = ref 0 in
  while !passes = 0 || Host.now_ns () < deadline do
    pass ();
    incr passes
  done;
  let dur = Host.now_ns () - t0 in
  add ?parent ~per_root ~ops:(!passes * items) ~dur_ns:(float_of_int dur) name

let find name = List.find (fun s -> s.name = name) !recorded
let per_op_ns s = s.dur_ns /. float_of_int (max 1 s.ops)

(* Cost per root operation, in ns. *)
let cost s = per_op_ns s *. s.per_root
let children name = List.filter (fun s -> s.parent = Some name) (List.rev !recorded)
let self s = cost s -. List.fold_left (fun acc c -> acc +. cost c) 0. (children s.name)

(* The span tree, indented, with cost and self time per root operation
   in microseconds and each cost's share of [root_ns]. *)
let print_tree ~root_ns =
  Printf.printf "  %-34s %10s %12s %12s %12s %7s\n" "span" "ops" "ns/op"
    "root us" "self us" "share";
  let rec show depth s =
    Printf.printf "  %-34s %10d %12.1f %12.3f %12.3f %6.1f%%\n"
      (String.make (2 * depth) ' ' ^ s.name)
      s.ops (per_op_ns s) (cost s /. 1e3) (self s /. 1e3)
      (100. *. cost s /. root_ns);
    List.iter (show (depth + 1)) (children s.name)
  in
  List.iter (show 0) (List.filter (fun s -> s.parent = None) (List.rev !recorded))
