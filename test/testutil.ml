(* Shared helpers for the test suites. *)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

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
