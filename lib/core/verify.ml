module Bitset = Gdpn_graph.Bitset
module Combinat = Gdpn_graph.Combinat
module Auto = Gdpn_graph.Auto
module Metrics = Gdpn_obs.Metrics

(* Observability instruments (process-wide, see Gdpn_obs.Metrics).
   [verify.solver_calls] matches the report's [solver_calls] whenever no
   early stop cut the enumeration short: sampled and single-set checks
   count per solve, orbit units per representative, and
   plain units settle it against the merged report. *)
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

type witness = {
  w_rank : int;
  w_set : int array;
  w_orbit : int;
  w_outcome : Reconfig.outcome;
}

(* A recorded failure tagged with the global rank of its fault set in the
   canonical enumeration order (sizes ascending, lexicographic within a
   size).  Work units run out of that order — a unit walks a DFS subtree,
   and units run on any domain — so each source keeps only its
   lowest-ranked [max_failures] and {!merge_tagged} reconstructs the
   canonical report. *)
module Topk = struct
  type entry = { rank : int; failure : failure }
  type t = { mutable buf : entry array; mutable len : int; cap : int }

  let dummy = { rank = -1; failure = { faults = []; reason = ""; orbit = 0 } }

  (* The buffer starts empty and doubles up to [cap]: callers pass caps
     of a million to mean "keep every failure", and most buffers hold a
     handful. *)
  let create cap = { buf = [||]; len = 0; cap = Stdlib.max 1 cap }

  (* In-place insertion into the rank-sorted buffer; a full buffer drops
     its highest rank.  Ranks are globally distinct, so ties never
     arise. *)
  let insert t ~rank failure =
    if t.len < t.cap || rank < t.buf.(t.cap - 1).rank then begin
      if t.len < t.cap then begin
        if t.len = Array.length t.buf then begin
          let buf =
            Array.make (Stdlib.min t.cap (Stdlib.max 16 (2 * t.len))) dummy
          in
          Array.blit t.buf 0 buf 0 t.len;
          t.buf <- buf
        end;
        t.len <- t.len + 1
      end;
      let i = ref (t.len - 1) in
      while !i > 0 && t.buf.(!i - 1).rank > rank do
        t.buf.(!i) <- t.buf.(!i - 1);
        decr i
      done;
      t.buf.(!i) <- { rank; failure }
    end

  let full t = t.len >= t.cap
  let max_rank t = t.buf.(t.len - 1).rank
  let to_list t = List.init t.len (fun i -> (t.buf.(i).rank, t.buf.(i).failure))
end

(* Merge tagged failures into the report of the canonical enumeration,
   which stops right after its [max_failures]-th failure.  [counts stop]
   maps the early-stop rank (or [None] when enumeration ran to
   completion) to the pair [(fault_sets_checked, solver_calls)] — the
   indirection lets the orbit-reduced mode translate representative
   ranks into orbit-expanded set counts. *)
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
      (* The canonical enumeration has checked exactly the ranks up to
         and including the cap-th failure's. *)
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

(* A checked result as a witness sink's outcome: an invalid witness
   decides nothing, so it reads as undecided. *)
let outcome_of = function
  | Ok p -> Reconfig.Pipeline p
  | Error "no pipeline" -> Reconfig.No_pipeline
  | Error _ -> Reconfig.Gave_up

(* Splice-first check of [mask] = parent's faults ∪ {failed}: repair the
   parent's pipeline around [failed] first ({!Fault_model.splice}
   revalidates, so a positive verdict is always genuine), full solve on
   splice failure.  Negatives always come from a full solve, so failure
   reasons are exactly {!solve_checked_model}'s.  [reported:false] marks
   scaffold pushes (prefix rebuilding whose set is reported elsewhere). *)
let splice_checked_model ~solve ~reported model ~parent ~mask ~failed =
  match parent with
  | Ok current -> (
    match Fault_model.splice model ~current ~faults:mask ~failed with
    | Some (`Unchanged p | `Spliced p) ->
      if reported then Metrics.incr m_splices;
      Ok p
    | None ->
      if reported then Metrics.incr m_splice_failures
      else Metrics.incr m_scaffold_solves;
      solve_checked_model ~solve model mask)
  | Error _ ->
    (* The parent has no pipeline; tolerance is not monotone, so the
       child must still be solved from scratch. *)
    if not reported then Metrics.incr m_scaffold_solves;
    solve_checked_model ~solve model mask

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
(* Work units                                                          *)
(* ------------------------------------------------------------------ *)

(* Every exhaustive and sampled verification is a [task]: its fault
   space cut into a canonical array of work units.  The cut is a
   function of the instance and mode alone — never of the domain count
   — so a unit's failures are the same wherever it runs,
   and a checkpoint written under one topology resumes under any other.
   A processor checks one unit at a time, tags each failure with its
   rank in the canonical order, and skips whatever the early-stop
   [cutoff] has passed; {!merge_tagged} turns the tagged failures of any
   set of units back into the canonical report. *)

module Task = struct
  (* Per-domain chain of solved prefix plans, following a prefix-tree
     walk: [c_res.(d)] is the (memoised) outcome for the prefix
     [c_elts.(0..d-1)] (universe elements); [c_len = -1] until the empty
     set has been solved.  Negative outcomes are memoised too — the solver
     is deterministic, so reusing a recorded [Error] is identical to
     re-solving.  With [c_splice = false] the chain only maintains the
     mask: every reported check is a from-scratch solve and scaffold
     pushes cost nothing. *)
  type chain = {
    c_model : Fault_model.t;
    c_solve : faults:Bitset.t -> Reconfig.outcome;
    c_splice : bool;
    c_mask : Bitset.t;
    c_elts : int array;
    c_res : (Pipeline.t, string) result array;
    mutable c_len : int;
  }

  (* The per-set solver: the caller's override, or the model's. *)
  let solver ?budget ?solve model =
    match solve with
    | Some f -> f
    | None -> fun ~faults -> Fault_model.solve ?budget model ~faults

  let chain_make ?budget ?solve ~splice ~depth model =
    {
      c_model = model;
      c_solve = solver ?budget ?solve model;
      c_splice = splice;
      c_mask = Bitset.create (Fault_model.size model);
      c_elts = Array.make (Stdlib.max 1 depth) (-1);
      c_res = Array.make (depth + 1) (Error "unsolved");
      c_len = -1;
    }

  let chain_solve ch =
    solve_checked_model ~solve:ch.c_solve ch.c_model ch.c_mask

  (* Ensure the empty set has a plan (scaffold — the empty set is reported
     by whichever unit covers rank 0). *)
  let chain_root ch =
    if ch.c_len < 0 then begin
      if ch.c_splice then begin
        Metrics.incr m_scaffold_solves;
        ch.c_res.(0) <- chain_solve ch
      end;
      ch.c_len <- 0
    end

  (* Push [e] with its outcome [r] already known. *)
  let chain_set ch e r =
    Bitset.add ch.c_mask e;
    ch.c_elts.(ch.c_len) <- e;
    ch.c_res.(ch.c_len + 1) <- r;
    ch.c_len <- ch.c_len + 1

  let chain_push ch ~reported e =
    Bitset.add ch.c_mask e;
    let r =
      if ch.c_splice then
        splice_checked_model ~solve:ch.c_solve ~reported ch.c_model
          ~parent:ch.c_res.(ch.c_len) ~mask:ch.c_mask ~failed:e
      else if reported then chain_solve ch
      else Error "unsolved"
    in
    chain_set ch e r;
    r

  let chain_pop ch =
    ch.c_len <- ch.c_len - 1;
    Bitset.remove ch.c_mask ch.c_elts.(ch.c_len)

  (* Align the chain to the prefix [target.(0..m-1)]: pop to the longest
     common prefix, scaffold-push the rest — the first element with the
     outcome [first] when it is known. *)
  let chain_align ?first ch target m =
    chain_root ch;
    let lcp = ref 0 in
    while !lcp < ch.c_len && !lcp < m && ch.c_elts.(!lcp) = target.(!lcp) do
      incr lcp
    done;
    while ch.c_len > !lcp do
      chain_pop ch
    done;
    for i = !lcp to m - 1 do
      match first with
      | Some r when i = 0 -> chain_set ch target.(0) r
      | Some _ | None -> ignore (chain_push ch ~reported:false target.(i))
    done

  type spec = {
    s_model : Fault_model.t;
    s_orbit : bool;
    s_splice : bool;
    s_universe : int list option;
    s_max_size : int;
  }

  type processor =
    ?witness:(witness -> unit) ->
    record:(rank:int -> failure -> unit) ->
    cutoff:(unit -> int) ->
    int ->
    unit

  type t = {
    t_min_rank : int array;
        (* per unit, a lower bound on the ranks it can emit: schedulers
           skip whole units once the early-stop cutoff passes them *)
    t_items : int;  (* sets checked by a full drain *)
    t_counts : int option -> int * int;
    t_spec : spec option;
    t_mk_processor : unit -> processor;
        (* called once per domain: builds the chain *)
    t_settle : report -> unit;
  }

  (* Plain units over the universe [elts]: unit 0 covers the sets of size
     < d, d = min k 2 (the empty set, and the singletons when k >= 2), and
     unit u > 0 the DFS subtree of the u-th size-d prefix in lexicographic
     order — C(|elts|, d) + 1 units of comparable weight.  The walk runs
     over positions in [elts], so ranks are the positions' canonical
     ranks and failures name the elements.  A later unit rooted at an
     element starts its chain from the outcome unit 0 reported for it,
     instead of splicing (and maybe solving) that singleton again. *)
  let plain_task ?budget ?solve ~spec ~elts model =
    let u = Array.length elts in
    let k = Stdlib.min spec.s_max_size u in
    let total = Combinat.count_up_to u k in
    let d = Stdlib.min k 2 in
    let roots =
      if k = 0 then [||]
      else
        Array.of_list
          (List.rev
             (Combinat.fold_choose u d (fun acc p -> Array.copy p :: acc) []))
    in
    let rank buf len = Combinat.rank_of_subset u buf len in
    let mk_processor () =
      let ch =
        chain_make ?budget ?solve ~splice:spec.s_splice ~depth:k model
      in
      let singles = Array.make u None in
      fun ?witness ~record ~cutoff unit_id ->
        let report buf len r =
          (match witness with
          | None -> ()
          | Some sink ->
            sink
              {
                w_rank = rank buf len;
                w_set = Array.init len (fun i -> elts.(buf.(i)));
                w_orbit = 1;
                w_outcome = outcome_of r;
              });
          match r with
          | Ok _ -> ()
          | Error reason ->
            let faults = List.init len (fun i -> elts.(buf.(i))) in
            record ~rank:(rank buf len) { faults; reason; orbit = 1 }
        in
        if unit_id = 0 then begin
          chain_root ch;
          while ch.c_len > 0 do
            chain_pop ch
          done;
          report [||] 0 (if ch.c_splice then ch.c_res.(0) else chain_solve ch);
          if d >= 2 then
            for v = 0 to u - 1 do
              if 1 + v <= cutoff () then begin
                let r = chain_push ch ~reported:true elts.(v) in
                singles.(v) <- Some r;
                report [| v |] 1 r;
                chain_pop ch
              end
            done
        end
        else begin
          let prefix = roots.(unit_id - 1) in
          let dd = Array.length prefix in
          if rank prefix dd <= cutoff () then begin
            chain_align ?first:singles.(prefix.(0)) ch
              (Array.map (fun p -> elts.(p)) prefix)
              (dd - 1);
            Combinat.iter_subsets_dfs ~root:prefix u k
              ~enter:(fun buf len ->
                let e = elts.(buf.(len - 1)) in
                let co = cutoff () in
                if co < max_int && rank buf len > co then begin
                  (* Pruned: push a placeholder so [leave]'s pop pairs up;
                     no child ever reads it. *)
                  chain_set ch e (Error "pruned");
                  false
                end
                else begin
                  report buf len (chain_push ch ~reported:true e);
                  true
                end)
              ~leave:(fun _ _ -> chain_pop ch)
          end
        end
    in
    {
      t_min_rank =
        Array.init
          (Array.length roots + 1)
          (fun i -> if i = 0 then 0 else rank roots.(i - 1) d);
      t_items = total;
      t_counts = (function Some r -> (r + 1, r + 1) | None -> (total, total));
      t_spec = Some spec;
      t_mk_processor = mk_processor;
      (* Settle the choke-point counter against the merged report:
         per-check increments would drift on pruned subtrees and count
         scaffolds. *)
      t_settle = (fun r -> Metrics.add m_solver_calls r.solver_calls);
    }

  (* Target unit count for span-chunked modes.  Fixed — deliberately NOT
     a function of the domain count, which would make the decomposition
     topology-dependent and break checkpoint portability across
     [--domains]/[GDPN_DOMAINS] settings; ~256 units keeps work stealing
     effective at any plausible core count while bounding the number of
     checkpoint records. *)
  let span_unit_target = 256

  (* [(nunits, span)]: [span u] is unit [u]'s [lo, hi) slice of [0, n). *)
  let span_units n =
    let chunk = Stdlib.max 1 ((n + span_unit_target - 1) / span_unit_target) in
    let nunits = Stdlib.max 1 ((n + chunk - 1) / chunk) in
    (nunits, fun u -> (u * chunk, Stdlib.min ((u + 1) * chunk) n))

  (* Lexicographic by element sequence, a prefix before its extensions:
     the DFS preorder of the subset tree. *)
  let preorder (a : int array) (b : int array) =
    let la = Array.length a and lb = Array.length b in
    let rec go t =
      if t >= la || t >= lb then compare la lb
      else if a.(t) <> b.(t) then compare a.(t) b.(t)
      else go (t + 1)
    in
    go 0

  (* Orbit-reduced units: check one representative per orbit of the
     symmetry group and scale every count by the orbit size.  Sound
     because the group's elements preserve fault-set solvability (label
     automorphisms map pipelines to pipelines; a reversal maps them to
     reversed pipelines, which the definition also admits), so all members
     of an orbit share the representative's outcome.

     The representative stream is re-ordered into DFS preorder before
     span-chunking (orbit×splice fusion), so consecutive representatives
     inside a unit share maximal prefixes and each splices from its
     nearest solved ancestor on the chain.  Ranks stay the {e original}
     size-major indices, so the prefix-sum counts and the merged report
     are untouched by the re-ordering. *)
  let orbit_task ?budget ?solve ~spec model reps =
    let nreps = Array.length reps in
    let prefix = Array.make (nreps + 1) 0 in
    for i = 0 to nreps - 1 do
      prefix.(i + 1) <- prefix.(i) + reps.(i).Auto.size
    done;
    let dfs = Array.init nreps Fun.id in
    Array.sort (fun i j -> preorder reps.(i).Auto.set reps.(j).Auto.set) dfs;
    let nunits, span = span_units nreps in
    let mk_processor () =
      let ch =
        chain_make ?budget ?solve ~splice:spec.s_splice ~depth:spec.s_max_size
          model
      in
      fun ?witness ~record ~cutoff u ->
        let lo, hi = span u in
        for pos = lo to hi - 1 do
          let i = dfs.(pos) in
          if i <= cutoff () then begin
            let { Auto.set; size } = reps.(i) in
            let m = Array.length set in
            Metrics.incr m_orbits_checked;
            Metrics.add m_calls_saved (size - 1);
            Metrics.incr m_solver_calls;
            let r =
              if m = 0 then begin
                if ch.c_len < 0 then begin
                  ch.c_res.(0) <- chain_solve ch;
                  ch.c_len <- 0
                end
                else if not ch.c_splice then begin
                  while ch.c_len > 0 do
                    chain_pop ch
                  done;
                  ch.c_res.(0) <- chain_solve ch
                end;
                ch.c_res.(0)
              end
              else begin
                chain_align ch set (m - 1);
                chain_push ch ~reported:true set.(m - 1)
              end
            in
            (match witness with
            | None -> ()
            | Some sink ->
              sink { w_rank = i; w_set = set; w_orbit = size; w_outcome = outcome_of r });
            match r with
            | Ok _ -> ()
            | Error reason ->
              record ~rank:i
                { faults = Array.to_list set; reason; orbit = size }
          end
        done
    in
    {
      t_min_rank =
        Array.init nunits (fun u ->
            let lo, hi = span u in
            let m = ref max_int in
            for pos = lo to hi - 1 do
              m := Stdlib.min !m dfs.(pos)
            done;
            !m);
      t_items = nreps;
      t_counts =
        (function
        | Some stop_rank -> (prefix.(stop_rank + 1), stop_rank + 1)
        | None -> (prefix.(nreps), nreps));
      t_spec = Some spec;
      t_mk_processor = mk_processor;
      t_settle = ignore;
    }

  (* The whole trial sequence is drawn up front, in order, on the caller's
     RNG, so the units only shard the solving.  Sampled sets share no
     prefix structure: each trial is checked from scratch, and its rank is
     its trial index.  Without a spec: a checkpoint header cannot pin an
     RNG state. *)
  let sampled_model ~rng ~trials ?budget ?solve model =
    let usize = Fault_model.size model in
    let k = Fault_model.max_faults model in
    let sets = Array.init trials (fun _ -> Combinat.sample_up_to rng usize k) in
    let nunits, span = span_units trials in
    let mk_processor () =
      let solve = solver ?budget ?solve model in
      let mask = Bitset.create usize in
      fun ?witness ~record ~cutoff u ->
        let lo, hi = span u in
        for i = lo to hi - 1 do
          if i <= cutoff () then begin
            let buf = sets.(i) in
            Bitset.clear mask;
            Array.iter (Bitset.add mask) buf;
            Metrics.incr m_solver_calls;
            let r = solve_checked_model ~solve model mask in
            (match witness with
            | None -> ()
            | Some sink ->
              sink { w_rank = i; w_set = buf; w_orbit = 1; w_outcome = outcome_of r });
            match r with
            | Ok _ -> ()
            | Error reason ->
              record ~rank:i { faults = Array.to_list buf; reason; orbit = 1 }
          end
        done
    in
    {
      t_min_rank = Array.init nunits (fun u -> fst (span u));
      t_items = trials;
      t_counts = (function Some r -> (r + 1, r + 1) | None -> (trials, trials));
      t_spec = None;
      t_mk_processor = mk_processor;
      t_settle = ignore;
    }

  let exhaustive_model ?budget ?solve ?universe ?symmetry ?(splice = true)
      ?max_size model =
    (match symmetry with
    | Some group
      when Auto.degree group <> Instance.order (Fault_model.instance model) ->
      invalid_arg "Verify.exhaustive: symmetry group degree <> instance order"
    | Some _ | None -> ());
    let max_size =
      Option.value max_size ~default:(Fault_model.max_faults model)
    in
    if max_size < 0 then invalid_arg "Verify.Task: negative max_size";
    let spec orbit =
      {
        s_model = model;
        s_orbit = orbit;
        s_splice = splice;
        s_universe = universe;
        s_max_size = max_size;
      }
    in
    let elts = Option.map Array.of_list universe in
    (* The caller hands the instance's node group; its action on the
       model's universe is what the orbit machinery needs. *)
    match Option.map (Fault_model.induced_symmetry model) symmetry with
    | Some group when not (Auto.is_trivial group) ->
      orbit_task ?budget ?solve ~spec:(spec true) model
        (Auto.fault_orbits ?universe:elts group ~max_size)
    | Some _ | None ->
      let elts =
        match elts with
        | Some e -> e
        | None -> Array.init (Fault_model.size model) Fun.id
      in
      plain_task ?budget ?solve ~spec:(spec false) ~elts model

  let exhaustive ?budget ?solve ?universe ?symmetry ?splice ?max_size inst =
    exhaustive_model ?budget ?solve ?universe ?symmetry ?splice ?max_size
      (Fault_model.node inst)

  let nunits t = Array.length t.t_min_rank
  let min_rank t u = t.t_min_rank.(u)
  let items t = t.t_items
  let spec t = t.t_spec
  let processor t = t.t_mk_processor ()

  let merge t ~max_failures sources =
    let report = merge_tagged ~max_failures ~counts:t.t_counts sources in
    t.t_settle report;
    report

  let drain ?witness t ~max_failures ~next ~cutoff ~tighten ~on_unit =
    let cap = Stdlib.max 1 max_failures in
    let process = processor t in
    let kept = Topk.create cap in
    let rec go () =
      match next () with
      | None -> Topk.to_list kept
      | Some u ->
        if min_rank t u <= cutoff () then begin
          let own = Topk.create cap in
          process ?witness
            ~record:(fun ~rank failure ->
              Topk.insert own ~rank failure;
              Topk.insert kept ~rank failure;
              if Topk.full kept then tighten (Topk.max_rank kept))
            ~cutoff u;
          on_unit u (Topk.to_list own)
        end;
        go ()
    in
    go ()

  (* Drain every unit, in order, on the calling domain. *)
  let run ~max_failures t =
    let next_unit = ref 0 and cutoff = ref max_int in
    let kept =
      drain t ~max_failures
        ~next:(fun () ->
          let u = !next_unit in
          if u >= nunits t then None
          else begin
            incr next_unit;
            Some u
          end)
        ~cutoff:(fun () -> !cutoff)
        ~tighten:(fun r -> cutoff := r)
        ~on_unit:(fun _ _ -> ())
    in
    merge t ~max_failures [ kept ]
end

let exhaustive_model ?budget ?solve ?(max_failures = 5) ?universe ?symmetry
    ?splice model =
  Task.run ~max_failures
    (Task.exhaustive_model ?budget ?solve ?universe ?symmetry ?splice model)

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
  Task.run ~max_failures (Task.sampled_model ~rng ~trials ?budget ?solve model)

let sampled ~rng ~trials ?budget ?solve ?max_failures inst =
  sampled_model ~rng ~trials ?budget ?solve ?max_failures
    (Fault_model.node inst)

let is_k_gd r = r.failures = [] && r.gave_up = 0

(* The plain task's first failure is the lowest-ranked one: the smallest
   breaking size, lexicographically first within it. *)
let breaking_fault_set ?budget ?max_size inst =
  let max_size = Option.value max_size ~default:(inst.Instance.k + 1) in
  match
    (Task.run ~max_failures:1 (Task.exhaustive ?budget ~max_size inst))
      .failures
  with
  | f :: _ -> Some f.faults
  | [] -> None

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
