module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Auto = Gdpn_graph.Auto
module Metrics = Gdpn_obs.Metrics

(* Observability instruments (process-wide, see Gdpn_obs.Metrics).
   [verify.solver_calls] counts in {!check_mask_model}, the one choke point
   every verification mode funnels through — sequential, orbit-reduced
   and the parallel shards alike — so the counter matches the report's
   [solver_calls] whenever no early-stop cut the enumeration short. *)
let m_solver_calls = Metrics.counter "verify.solver_calls"
let m_orbits_checked = Metrics.counter "verify.orbits_checked"
let m_calls_saved = Metrics.counter "verify.solver_calls_saved"

(* Splice accounting for the prefix-tree paths: a reported check answered
   by [Repair.patch] from its parent's plan counts as a splice; a failed
   patch that fell back to the full solver counts as a splice failure.
   Scaffold solves are full solves made only to (re)build a branch prefix
   that some other check reports — they are bookkeeping, not verification
   work, so they get their own cell and never touch [solver_calls]. *)
let m_splices = Metrics.counter "verify.splices"
let m_splice_failures = Metrics.counter "verify.splice_failures"
let m_scaffold_solves = Metrics.counter "verify.scaffold_solves"

type failure = { faults : int list; reason : string; orbit : int }

type report = {
  fault_sets_checked : int;
  solver_calls : int;
  failures : failure list;
  gave_up : int;
}

(* A recorded failure tagged with the global rank of its fault set in the
   canonical enumeration order (sizes ascending, lexicographic within a
   size).  Out-of-order enumerators — the DFS prefix walk, the parallel
   shards — keep only the lowest-ranked [max_failures] and let
   {!merge_tagged} reconstruct the sequential report byte for byte. *)
module Topk = struct
  type entry = { rank : int; failure : failure }
  type t = { buf : entry array; mutable len : int; cap : int }

  let dummy = { rank = -1; failure = { faults = []; reason = ""; orbit = 0 } }

  let create cap =
    let cap = Stdlib.max 1 cap in
    { buf = Array.make cap dummy; len = 0; cap }

  (* In-place insertion into the rank-sorted buffer; ranks are globally
     distinct, so ties never arise. *)
  let insert t ~rank failure =
    let entry = { rank; failure } in
    if t.len < t.cap then begin
      let i = ref t.len in
      while !i > 0 && t.buf.(!i - 1).rank > rank do
        t.buf.(!i) <- t.buf.(!i - 1);
        decr i
      done;
      t.buf.(!i) <- entry;
      t.len <- t.len + 1
    end
    else if rank < t.buf.(t.cap - 1).rank then begin
      let i = ref (t.cap - 1) in
      while !i > 0 && t.buf.(!i - 1).rank > rank do
        t.buf.(!i) <- t.buf.(!i - 1);
        decr i
      done;
      t.buf.(!i) <- entry
    end

  let full t = t.len >= t.cap
  let max_rank t = t.buf.(t.len - 1).rank
  let to_list t = List.init t.len (fun i -> (t.buf.(i).rank, t.buf.(i).failure))
end

(* Merge tagged failures into a report identical to the sequential
   lexicographic one.  [counts stop] maps the early-stop rank (or [None]
   when enumeration ran to completion) to the pair
   [(fault_sets_checked, solver_calls)] — the indirection lets the
   orbit-reduced mode translate representative ranks into orbit-expanded
   set counts. *)
let merge_tagged ~max_failures ~counts per_source =
  let cap = Stdlib.max 1 max_failures in
  let all =
    List.sort (fun (a, _) (b, _) -> compare a b) (List.concat per_source)
  in
  let kept = List.filteri (fun i _ -> i < cap) all in
  let gave_up =
    List.fold_left
      (fun acc (_, f) ->
        if f.reason = "solver gave up" then acc + f.orbit else acc)
      0 kept
  in
  let checked, calls =
    if List.length all >= cap && kept <> [] then
      (* The sequential path stops right after recording the cap-th
         failure: it has enumerated exactly the ranks up to and including
         that failure's. *)
      counts (Some (fst (List.nth kept (List.length kept - 1))))
    else counts None
  in
  {
    fault_sets_checked = checked;
    solver_calls = calls;
    failures = List.map snd kept;
    gave_up;
  }

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* Full solve + revalidation, keeping the witness so callers can reuse it
   as a splice parent.  {!Fault_model} supplies the degraded instance:
   for the node model that is the instance itself, so this is the plain
   solver and validator.  No metric here: the prefix-tree paths
   reconstruct [solver_calls] during the merge (pruned subtrees are
   counted without being visited), so the counter is settled by the
   caller. *)
let solve_checked_model ?budget ?solve model mask =
  let outcome =
    match solve with
    | Some f -> f ~faults:mask
    | None -> Fault_model.solve ?budget model ~faults:mask
  in
  match outcome with
  | Reconfig.Pipeline p -> (
    (* The solver already validates, but re-check here so the verifier
       does not trust it (nor any [solve] override). *)
    match Fault_model.validate model ~faults:mask p.Pipeline.nodes with
    | Ok _ -> Ok p
    | Error e -> Error ("invalid witness: " ^ e))
  | Reconfig.No_pipeline -> Error "no pipeline"
  | Reconfig.Gave_up -> Error "solver gave up"

let check_mask_model ?budget ?solve model mask =
  Metrics.incr m_solver_calls;
  Result.map ignore (solve_checked_model ?budget ?solve model mask)

(* Splice-first check of [mask] = parent's faults ∪ {failed}: repair the
   parent's pipeline around [failed] first ({!Fault_model.splice}
   revalidates, so a positive verdict is always genuine), full solve on
   splice failure.  Negatives always come from a full solve, so failure
   reasons are exactly {!check_mask_model}'s.  [reported:false] marks
   scaffold pushes (prefix rebuilding whose set is reported elsewhere). *)
let splice_checked_model ?budget ?solve ?(reported = true) model ~parent
    ~mask ~failed =
  match parent with
  | Ok current -> (
    match Fault_model.splice model ~current ~faults:mask ~failed with
    | Some (`Unchanged p | `Spliced p) ->
      if reported then Metrics.incr m_splices;
      Ok p
    | None ->
      if reported then Metrics.incr m_splice_failures
      else Metrics.incr m_scaffold_solves;
      solve_checked_model ?budget ?solve model mask)
  | Error _ ->
    (* The parent has no pipeline; tolerance is not monotone, so the
       child must still be solved from scratch. *)
    if not reported then Metrics.incr m_scaffold_solves;
    solve_checked_model ?budget ?solve model mask

let check_model_set ?budget model indices =
  let usize = Fault_model.size model in
  List.iter
    (fun i ->
      if i < 0 || i >= usize then
        invalid_arg "Verify.check_model_set: universe index out of range")
    indices;
  Metrics.incr m_solver_calls;
  solve_checked_model ?budget model (Bitset.of_list usize indices)

let check_fault_set ?budget inst faults =
  Result.map ignore (check_model_set ?budget (Fault_model.node inst) faults)

(* ------------------------------------------------------------------ *)
(* Enumeration cores                                                   *)
(* ------------------------------------------------------------------ *)

(* Every exhaustive strategy below is written once, against this record
   of checking closures over the model's universe (element = universe
   index; for the node model, a node id). *)
type core = {
  c_mask : Bitset.t;  (* scratch fault mask over the universe *)
  c_full : Bitset.t -> (Pipeline.t, string) result;
  c_splice :
    reported:bool ->
    parent:(Pipeline.t, string) result ->
    Bitset.t ->
    int ->
    (Pipeline.t, string) result;
}

let core_check core mask =
  Metrics.incr m_solver_calls;
  Result.map ignore (core.c_full mask)

let model_core ?budget ?solve model =
  {
    c_mask = Bitset.create (Fault_model.size model);
    c_full = (fun mask -> solve_checked_model ?budget ?solve model mask);
    c_splice =
      (fun ~reported ~parent mask failed ->
        splice_checked_model ?budget ?solve ~reported model ~parent ~mask
          ~failed);
  }

let run_checks_core core ~max_failures iter_sets =
  let checked = ref 0 in
  let failures = ref [] in
  let gave_up = ref 0 in
  let mask = core.c_mask in
  let exception Stop in
  (try
     iter_sets (fun (buf : int array) (len : int) ->
         Bitset.clear mask;
         for i = 0 to len - 1 do
           Bitset.add mask buf.(i)
         done;
         incr checked;
         (match core_check core mask with
         | Ok () -> ()
         | Error reason ->
           if reason = "solver gave up" then incr gave_up;
           failures :=
             { faults = Array.to_list (Array.sub buf 0 len); reason; orbit = 1 }
             :: !failures;
           if List.length !failures >= max_failures then raise Stop);
         ())
   with Stop -> ());
  {
    fault_sets_checked = !checked;
    solver_calls = !checked;
    failures = List.rev !failures;
    gave_up = !gave_up;
  }

(* Orbit-reduced exhaustive mode: check one representative per orbit of
   the symmetry group and scale every count by the orbit size.  Sound
   because the group's elements preserve fault-set solvability (label
   automorphisms map pipelines to pipelines; a reversal maps them to
   reversed pipelines, which the definition also admits), so all members
   of an orbit share the representative's outcome. *)
let orbits_core core ~max_failures reps =
  let checked = ref 0 in
  let calls = ref 0 in
  let gave_up = ref 0 in
  let failures = ref [] in
  let mask = core.c_mask in
  let exception Stop in
  (try
     Array.iter
       (fun { Auto.set; size } ->
         Bitset.clear mask;
         Array.iter (Bitset.add mask) set;
         checked := !checked + size;
         incr calls;
         Metrics.incr m_orbits_checked;
         Metrics.add m_calls_saved (size - 1);
         match core_check core mask with
         | Ok () -> ()
         | Error reason ->
           if reason = "solver gave up" then gave_up := !gave_up + size;
           failures :=
             { faults = Array.to_list set; reason; orbit = size } :: !failures;
           if List.length !failures >= max_failures then raise Stop)
       reps
   with Stop -> ());
  {
    fault_sets_checked = !checked;
    solver_calls = !calls;
    failures = List.rev !failures;
    gave_up = !gave_up;
  }

(* Prefix-tree (DFS) exhaustive mode: walk the subset tree maintaining a
   per-branch stack of solved plans, so the child S ∪ {v} is first
   patched from S's pipeline and only solved from scratch when the splice
   fails.  Failures are rank-tagged and merged back into the canonical
   order; once [max_failures] failures are held, any subtree whose every
   member outranks the worst kept failure is pruned (strict descendants
   have strictly larger size, hence strictly larger size-major rank, so
   the sequential early stop would never have reached them). *)
let dfs_core core ~max_failures ~elts ~k =
  let u = Array.length elts in
  let k = Stdlib.min k u in
  let total = Combinat.count_up_to u k in
  let mask = core.c_mask in
  let plans = Array.make (k + 1) (Error "unsolved") in
  let kept = Topk.create max_failures in
  let cutoff = ref max_int in
  let enter buf len =
    if len > 0 then Bitset.add mask elts.(buf.(len - 1));
    if !cutoff < max_int && Combinat.rank_of_subset u buf len > !cutoff then
      false
    else begin
      let r =
        if len = 0 then core.c_full mask
        else
          core.c_splice ~reported:true ~parent:plans.(len - 1) mask
            elts.(buf.(len - 1))
      in
      plans.(len) <- r;
      (match r with
      | Ok _ -> ()
      | Error reason ->
        let rank = Combinat.rank_of_subset u buf len in
        let faults = List.init len (fun i -> elts.(buf.(i))) in
        Topk.insert kept ~rank { faults; reason; orbit = 1 };
        if Topk.full kept then cutoff := Topk.max_rank kept);
      true
    end
  in
  let leave buf len = if len > 0 then Bitset.remove mask elts.(buf.(len - 1)) in
  Combinat.iter_subsets_dfs u k ~enter ~leave;
  let counts = function Some r -> (r + 1, r + 1) | None -> (total, total) in
  let report = merge_tagged ~max_failures ~counts [ Topk.to_list kept ] in
  (* Settle the choke-point counter in one step so it still equals the
     report's [solver_calls] exactly (per-visit increments would miss the
     pruned-but-counted tail of an early-stopped enumeration). *)
  Metrics.add m_solver_calls report.solver_calls;
  report

(* Orbit-reduced mode with splicing: representatives arrive in
   size-ascending min-lex order, so consecutive sets share prefixes.  A
   chain of solved prefixes ([elts]/[res]) is popped to the longest
   common prefix and re-grown element by element — the nearest solved
   ancestor seeds each patch attempt; prefixes that are not themselves
   being reported are scaffold pushes.  Accounting (counts, metrics,
   early stop) is exactly the from-scratch orbit path's. *)
let orbits_splice_core core ~max_failures ~k reps =
  let mask = core.c_mask in
  let elts = Array.make (Stdlib.max 1 k) (-1) in
  let res = Array.make (k + 1) (Error "unsolved") in
  let len = ref (-1) in
  let push ~reported e =
    Bitset.add mask e;
    let r = core.c_splice ~reported ~parent:res.(!len) mask e in
    elts.(!len) <- e;
    res.(!len + 1) <- r;
    incr len;
    r
  in
  let check_rep set m =
    if m = 0 then begin
      if !len < 0 then begin
        res.(0) <- core.c_full mask;
        len := 0
      end;
      res.(0)
    end
    else begin
      if !len < 0 then begin
        (* Lazy root: the empty set solved once as scaffold. *)
        Metrics.incr m_scaffold_solves;
        res.(0) <- core.c_full mask;
        len := 0
      end;
      let lcp = ref 0 in
      while !lcp < !len && !lcp < m - 1 && elts.(!lcp) = set.(!lcp) do
        incr lcp
      done;
      while !len > !lcp do
        len := !len - 1;
        Bitset.remove mask elts.(!len)
      done;
      for i = !lcp to m - 2 do
        ignore (push ~reported:false set.(i))
      done;
      push ~reported:true set.(m - 1)
    end
  in
  let checked = ref 0 in
  let calls = ref 0 in
  let gave_up = ref 0 in
  let failures = ref [] in
  let exception Stop in
  (try
     Array.iter
       (fun { Auto.set; size } ->
         checked := !checked + size;
         incr calls;
         Metrics.incr m_orbits_checked;
         Metrics.add m_calls_saved (size - 1);
         Metrics.incr m_solver_calls;
         match check_rep set (Array.length set) with
         | Ok _ -> ()
         | Error reason ->
           if reason = "solver gave up" then gave_up := !gave_up + size;
           failures :=
             { faults = Array.to_list set; reason; orbit = size } :: !failures;
           if List.length !failures >= max_failures then raise Stop)
       reps
   with Stop -> ());
  {
    fault_sets_checked = !checked;
    solver_calls = !calls;
    failures = List.rev !failures;
    gave_up = !gave_up;
  }

let exhaustive_model ?budget ?solve ?(max_failures = 5) ?universe ?symmetry
    ?(splice = true) model =
  let usize = Fault_model.size model in
  let k = Fault_model.max_faults model in
  (match symmetry with
  | Some group
    when Auto.degree group <> Instance.order (Fault_model.instance model) ->
    invalid_arg "Verify.exhaustive: symmetry group degree <> instance order"
  | Some _ | None -> ());
  let core = model_core ?budget ?solve model in
  (* The caller hands the instance's node group; its action on the
     model's universe is what the orbit machinery needs. *)
  let induced = Option.map (Fault_model.induced_symmetry model) symmetry in
  match induced with
  | Some group when not (Auto.is_trivial group) ->
    let universe = Option.map Array.of_list universe in
    let reps = Auto.fault_orbits ?universe group ~max_size:k in
    if splice then orbits_splice_core core ~max_failures ~k reps
    else orbits_core core ~max_failures reps
  | Some _ | None when splice ->
    let elts =
      match universe with
      | None -> Array.init usize Fun.id
      | Some l -> Array.of_list l
    in
    dfs_core core ~max_failures ~elts ~k
  | Some _ | None -> (
    match universe with
    | None ->
      run_checks_core core ~max_failures (fun f ->
          Combinat.iter_subsets_up_to usize k (fun buf len -> f buf len))
    | Some l ->
      let elts = Array.of_list l in
      let translated = Array.make (Array.length elts) 0 in
      run_checks_core core ~max_failures (fun f ->
          Combinat.iter_subsets_up_to (Array.length elts) k (fun buf len ->
              for i = 0 to len - 1 do
                translated.(i) <- elts.(buf.(i))
              done;
              f translated len)))

let exhaustive ?budget ?solve ?max_failures ?universe ?symmetry ?splice inst =
  exhaustive_model ?budget ?solve ?max_failures ?universe ?symmetry ?splice
    (Fault_model.node inst)

let expanded_failure_sets ~symmetry r =
  List.sort compare
    (List.concat_map
       (fun { faults; orbit = _; reason = _ } ->
         List.map Array.to_list
           (Auto.orbit_of_set symmetry (Array.of_list faults)))
       r.failures)

let sampled_model ~rng ~trials ?budget ?solve ?(max_failures = 5) model =
  let usize = Fault_model.size model in
  let k = Fault_model.max_faults model in
  run_checks_core
    (model_core ?budget ?solve model)
    ~max_failures
    (fun f ->
      for _ = 1 to trials do
        let buf = Combinat.sample_up_to rng usize k in
        f buf (Array.length buf)
      done)

let sampled ~rng ~trials ?budget ?solve ?max_failures inst =
  sampled_model ~rng ~trials ?budget ?solve ?max_failures (Fault_model.node inst)

let is_k_gd r = r.failures = [] && r.gave_up = 0

let breaking_fault_set ?budget ?max_size inst =
  let order = Instance.order inst in
  let max_size = Option.value max_size ~default:(inst.Instance.k + 1) in
  let model = Fault_model.node inst in
  let mask = Bitset.create order in
  let found = ref None in
  (try
     for size = 0 to min max_size order do
       Combinat.iter_choose order size (fun buf ->
           Bitset.clear mask;
           Array.iter (Bitset.add mask) buf;
           match check_mask_model ?budget model mask with
           | Ok () -> ()
           | Error _ ->
             found := Some (Array.to_list buf);
             raise Exit)
     done
   with Exit -> ());
  !found

let tolerance ?budget ?cap inst =
  let cap = Option.value cap ~default:(inst.Instance.k + 1) in
  match breaking_fault_set ?budget ~max_size:cap inst with
  | Some witness -> List.length witness - 1
  | None -> cap

(* One renderer for every model: [describe] prints a failure's fault set
   ({!Fault_model.describe} for universe indices; plain node ids below). *)
let pp_report_with describe ppf r =
  Format.fprintf ppf "checked %d fault sets%s: %s" r.fault_sets_checked
    (if r.solver_calls < r.fault_sets_checked then
       Format.asprintf " (%d orbit representatives solved)" r.solver_calls
     else "")
    (if is_k_gd r then "all tolerated"
     else
       Format.asprintf "%d failures (first: %s%s — %s)%s"
         (List.length r.failures)
         (match r.failures with { faults; _ } :: _ -> describe faults | [] -> "{}")
         (match r.failures with
         | { orbit; _ } :: _ when orbit > 1 ->
           Format.asprintf " ×%d orbit" orbit
         | _ -> "")
         (match r.failures with { reason; _ } :: _ -> reason | [] -> "")
         (if r.gave_up > 0 then Format.asprintf " (%d gave up)" r.gave_up
          else ""))

let pp_report_model model = pp_report_with (Fault_model.describe model)

let pp_report =
  pp_report_with (fun faults ->
      "{" ^ String.concat "," (List.map string_of_int faults) ^ "}")
