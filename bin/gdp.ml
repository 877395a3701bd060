(* gdp — command-line interface to the gracefully-degradable pipeline
   network library.

   Subcommands:
     build          construct an instance and print its summary (or its DOT)
     solve          reconfigure around a fault set and print the pipeline
     verify         exhaustively or randomly verify k-graceful-degradability
     tolerance      exact fault tolerance and a smallest breaking set
     table          print a theorem degree table
     bounds         print the proven degree lower bounds
     census         exhaust the degree-(k+2) standard solution space (E8)
     impossibility  run the Lemma 3.14 machine check
     figure         regenerate a paper figure as a DOT file
     draw           ASCII rendering of an instance and an embedding
     compare        run the prior-work comparison (E12)
     links          survey link-fault tolerance (E13)
     survival       beyond-spec lifetime under random faults (E15)
     plan           recommend the smallest k for a survival target
     simulate       stream a workload through the network under fault injection
     trace          print a traced simulation's event log as CSV
     stats          run a representative workload and dump the metrics
     chaos          deterministic multi-year fault storm with invariant checks
     console        interactive machine controller on stdin
     save / check   write a construction to a .gdpn file / verify a loaded one
     certify        emit a witness certificate of k-GD
     check-cert     validate a certificate without a solver
     compile-plans  precompile the fault space into a plan store
     serve          run the gdpd plan daemon in-process
     bench-client   send a seeded request pool to gdpd and crosscheck it *)

open Cmdliner
open Gdpn_core
module Faultsim = Gdpn_faultsim
module Engine = Gdpn_engine.Engine
module Compare = Gdpn_baselines.Compare
module Hayes = Gdpn_baselines.Hayes
module Spares = Gdpn_baselines.Spares
module Metrics = Gdpn_obs.Metrics
module Span = Gdpn_obs.Span

let pf = Format.printf

(* Run [f] with the span sink pointed at [path] (when given); on the way
   out, append the final metrics snapshot so the trace file carries its
   own totals, then restore the null sink. *)
let with_trace trace_out f =
  match trace_out with
  | None -> f ()
  | Some path ->
    Span.set_jsonl path;
    Fun.protect
      ~finally:(fun () ->
        Span.emit_snapshot (Metrics.snapshot ());
        Span.close ();
        pf "wrote trace to %s@." path)
      f

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write a JSONL span trace to $(docv); the last line is a \
               snapshot of the metrics registry.")

(* -------------------- shared arguments -------------------- *)

let n_arg =
  Arg.(required & opt (some int) None & info [ "n" ] ~docv:"N"
         ~doc:"Guaranteed pipeline length (number of processors).")

let k_arg =
  Arg.(required & opt (some int) None & info [ "k" ] ~docv:"K"
         ~doc:"Fault tolerance (maximum number of faults).")

let merged_arg =
  Arg.(value & flag & info [ "merged" ]
         ~doc:"Apply the merged-terminal transform (fault-free I/O model).")

let faults_arg =
  Arg.(value & opt (list int) [] & info [ "faults" ] ~docv:"IDS"
         ~doc:"Comma-separated faulty node ids.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Write DOT output to $(docv).")

(* Every subcommand builds its instance here, so this is where gdp
   reports an (n, k) that Family.build refuses — no construction
   ([Family.Unsupported]) or n, k below 1 ([Invalid_argument]) — as an
   input error: one [error:] line and exit 2. *)
let build_instance n k merged =
  match Family.build ~n ~k with
  | inst -> if merged then Merge.apply inst else inst
  | exception (Family.Unsupported msg | Invalid_argument msg) ->
    pf "error: %s@." msg;
    exit 2

let model_arg =
  Arg.(value & opt string "node" & info [ "model" ] ~docv:"MODEL"
         ~doc:"Fault model: $(b,node) (the paper's, default), $(b,mixed) \
               (nodes and links), $(b,colored) (per-node shared-resource \
               link classes) or $(b,neighbor) (closed neighborhoods).")

let model_of_name inst name =
  match Fault_model.of_name inst name with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf
         "unknown fault model %S (expected node, mixed, colored or neighbor)"
         name)

(* -------------------- build -------------------- *)

let build_cmd =
  let run n k merged out =
    let inst = build_instance n k merged in
    pf "%a@." Instance.pp inst;
    pf "standard: %b   node-optimal: %b   degree-optimal: %b@."
      (Instance.is_standard inst)
      (Instance.is_node_optimal inst)
      (Bounds.is_degree_optimal inst);
    (match out with
    | Some path ->
      Gdpn_graph.Dot.save ~path (Instance.to_dot inst);
      pf "wrote %s@." path
    | None -> ());
    0
  in
  Cmd.v (Cmd.info "build" ~doc:"Construct a solution graph.")
    Term.(const run $ n_arg $ k_arg $ merged_arg $ out_arg)

(* -------------------- solve -------------------- *)

let solve_cmd =
  let run n k merged faults out =
    let inst = build_instance n k merged in
    match Reconfig.solve_list inst ~faults with
    | Reconfig.Pipeline p ->
      let p = Pipeline.normalise inst p in
      pf "pipeline: %a@." Pipeline.pp p;
      pf "processors used: %d (all healthy processors)@."
        (Pipeline.processor_count p);
      (match out with
      | Some path ->
        Gdpn_graph.Dot.save ~path
          (Instance.to_dot ~faults ~pipeline:p.Pipeline.nodes inst);
        pf "wrote %s@." path
      | None -> ());
      0
    | Reconfig.No_pipeline ->
      pf "no pipeline exists for this fault set@.";
      1
    | Reconfig.Gave_up ->
      pf "solver budget exhausted@.";
      2
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Reconfigure around a fault set.")
    Term.(const run $ n_arg $ k_arg $ merged_arg $ faults_arg $ out_arg)

(* -------------------- verify -------------------- *)

(* The header lines and the report lines of a verification, fault sets
   rendered in the model's element syntax. *)
let print_model model =
  pf "fault model: %s (universe %d elements, sets of size <= %d)@."
    (Fault_model.name model) (Fault_model.size model)
    (Fault_model.max_faults model)

let print_report model report =
  pf "%a@." (Verify.pp_report_model model) report;
  if report.Verify.solver_calls < report.Verify.fault_sets_checked then
    pf "orbit reduction: %d solver calls covered %d fault sets (%.1fx \
        fewer)@."
      report.Verify.solver_calls report.Verify.fault_sets_checked
      (float_of_int report.Verify.fault_sets_checked
      /. float_of_int (max 1 report.Verify.solver_calls));
  List.iter
    (fun f ->
      pf "counterexample: %s — %s@."
        (Fault_model.describe model f.Verify.faults)
        f.Verify.reason)
    report.Verify.failures

(* Enumerate the model's fault space once more in other ways and compare,
   printing one line per check; true when all agree.  With symmetry: the
   orbit-reduced report against full enumeration (verdict, counts and
   orbit-expanded failure sets).  Splice-first against from-scratch
   solving and the work-stealing shards, forced onto at least two
   domains however small the space, over the run's own enumeration
   (orbit-reduced under symmetry).  The search kernel itself is held to
   the backtracker it replaced by test_kernel. *)
let crosschecks model ~universe ~group ~domains =
  let module Metrics = Gdpn_obs.Metrics in
  let cap = 1_000_000 in
  let exhaustive ?symmetry ?splice () =
    Verify.exhaustive_model ~max_failures:cap ?universe ?symmetry ?splice
      model
  in
  let delta name f =
    let c = Metrics.counter name in
    let before = Metrics.value c in
    let r = f () in
    (r, Metrics.value c - before)
  in
  let report name agree detail =
    pf "crosscheck %s: %s (%s)@." name (if agree then "PASS" else "FAIL")
      detail;
    agree
  in
  let orbit_ok =
    match group with
    | None -> true
    | Some g ->
      let full = exhaustive () in
      let orb = exhaustive ~symmetry:g () in
      let full_sets =
        List.sort compare
          (List.map
             (fun f -> List.sort compare f.Verify.faults)
             full.Verify.failures)
      in
      let orb_sets =
        Verify.expanded_failure_sets
          ~symmetry:(Fault_model.induced_symmetry model g)
          orb
      in
      report "vs full enumeration"
        (Verify.is_k_gd full = Verify.is_k_gd orb
        && full.Verify.fault_sets_checked = orb.Verify.fault_sets_checked
        && full_sets = orb_sets)
        (Printf.sprintf "full %d sets / orbit %d solver calls"
           full.Verify.solver_calls orb.Verify.solver_calls)
  in
  let splice_ok =
    let spliced, n_splices =
      delta "verify.splices" (fun () -> exhaustive ?symmetry:group ())
    in
    let scratch = exhaustive ?symmetry:group ~splice:false () in
    let parallel =
      Engine.Parallel.run_task ~max_failures:cap ~domains:(max 2 domains)
        ~min_items_per_domain:0
        (Engine.Parallel.Task.exhaustive_model ?universe ?symmetry:group model)
    in
    report "splice vs from-scratch vs parallel"
      (spliced = scratch && spliced = parallel)
      (Printf.sprintf "%d sets, %d spliced" spliced.Verify.fault_sets_checked
         n_splices)
  in
  orbit_ok && splice_ok

(* Every verification, in every fault model: build the task once —
   sampled, or exhaustive (orbit-reduced under a nontrivial induced
   group; restricted to the processors under --merged) — then drain it
   over domains with [Engine.Parallel.run_task], optionally checkpointed
   to or resumed from a file.  Every drain merges into the same report,
   which --crosscheck verifies (exit 3 on divergence). *)
let verify_run inst model ~merged ~sample ~domains ~seed ~symmetry
    ~crosscheck ~ckpt_path ~resume_path =
  let module Auto = Gdpn_graph.Auto in
  let module Task = Engine.Parallel.Task in
  let module Checkpoint = Gdpn_engine.Checkpoint in
  let out_of_core = ckpt_path <> None || resume_path <> None in
  if out_of_core && sample <> None then begin
    pf "error: --checkpoint/--resume require exhaustive mode@.";
    2
  end
  else begin
    let max_failures = 5 in
    pf "%a@." Instance.pp inst;
    print_model model;
    (* The merged transform restricts node faults to processors; terminals
       are fault-free in that model. *)
    let universe =
      if not merged then None
      else if Fault_model.is_node model then Some (Instance.processors inst)
      else begin
        pf "note: --merged fault restriction applies to the node model only@.";
        None
      end
    in
    let d =
      match domains with
      | Some d -> d
      | None -> Engine.Parallel.default_domains ()
    in
    let group, task =
      match sample with
      | Some trials ->
        if symmetry then
          pf "note: --symmetry applies to exhaustive mode only@.";
        ( None,
          Task.sampled_model ~rng:(Random.State.make [| seed |]) ~trials model
        )
      | None ->
        let group = if symmetry then Some (Instance.symmetry inst) else None in
        let task = Task.exhaustive_model ?universe ?symmetry:group model in
        Option.iter
          (fun g ->
            pf "symmetry: group order %d, %d generators%s@." (Auto.order g)
              (List.length (Auto.generators g))
              (match Task.spec task with
              | Some { Verify.Task.s_orbit = true; _ } -> ""
              | Some _ | None -> " — trivial group, using plain enumeration"))
          group;
        (group, task)
    in
    match
      Checkpoint.start ?create:ckpt_path ?resume:resume_path
        (lazy (Task.header task ~max_failures))
    with
    | Error e ->
      pf "error: cannot resume: %s@." e;
      2
    | Ok session ->
      Option.iter (pf "%a@." Checkpoint.pp_resumed) session.loaded;
      let writer = session.writer
      and resumed = Option.map (fun l -> l.Checkpoint.l_results) session.loaded in
      (match sample with
      | Some _ -> pf "sampled verification: seed=%d domains=%d@." seed d
      | None when out_of_core ->
        pf "checkpointed verification: domains=%d units=%d@." d
          (Task.nunits task)
      | None -> pf "exhaustive verification: domains=%d@." d);
      let report =
        Fun.protect ~finally:(fun () -> Option.iter Checkpoint.close writer)
        @@ fun () ->
        Engine.Parallel.run_task ~max_failures ~domains:d ?checkpoint:writer
          ?resumed task
      in
      Option.iter (pf "checkpoint: %s@.") ckpt_path;
      print_report model report;
      let agree =
        if not crosscheck then true
        else if sample <> None then begin
          pf "note: --crosscheck requires exhaustive mode@.";
          true
        end
        else if out_of_core then begin
          let seq =
            Verify.exhaustive_model ~max_failures ?universe ?symmetry:group
              model
          in
          let same = report = seq in
          pf "crosscheck out-of-core vs sequential: %s (%d sets, %d solver \
              calls)@."
            (if same then "PASS" else "FAIL")
            seq.Verify.fault_sets_checked seq.Verify.solver_calls;
          same
        end
        else crosschecks model ~universe ~group ~domains:d
      in
      if not agree then 3 else if Verify.is_k_gd report then 0 else 1
  end

let verify_cmd =
  let sample_arg =
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"TRIALS"
           ~doc:"Random sampling instead of exhaustive enumeration.")
  in
  let domains_arg =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"D"
           ~doc:"Verify in parallel over $(docv) OCaml domains (default: the \
                 GDPN_DOMAINS environment variable, else the recommended \
                 domain count).")
  in
  let symmetry_arg =
    Arg.(value & flag & info [ "symmetry" ]
           ~doc:"Orbit-reduced exhaustive verification: compute the \
                 instance's solvability-preserving symmetry group and solve \
                 only one fault set per orbit.")
  in
  let crosscheck_arg =
    Arg.(value & flag & info [ "crosscheck" ]
           ~doc:"Exhaustive mode, any fault model: re-run the enumeration \
                 with splice-first prefix-tree solving disabled and on at \
                 least two work-stealing shards and compare the reports.  \
                 With --symmetry, additionally run the full enumeration \
                 and compare verdicts, counts and (orbit-expanded) failure \
                 sets.  With --checkpoint or --resume, compare the report \
                 with one sequential run instead.  Exits 3 on any \
                 disagreement.")
  in
  let checkpoint_arg =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Append one compact binary record per drained work unit to \
                 $(docv); an interrupted run resumes with $(b,--resume).")
  in
  let resume_arg =
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE"
           ~doc:"Resume an interrupted $(b,--checkpoint) run: recorded \
                 units are skipped, new ones keep appending to $(docv), \
                 and the final report is byte-identical to an \
                 uninterrupted run's (any --domains).")
  in
  let fault_set_arg =
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SET"
           ~doc:"Check one explicit fault set instead of enumerating: \
                 comma-separated fault elements in the model's syntax — \
                 node $(b,3), link $(b,2-5), colour class $(b,c4), \
                 neighborhood $(b,n7).  Link elements without an explicit \
                 $(b,--model) switch to the mixed model.  Prints the \
                 pipeline found or the counterexample.")
  in
  (* --faults: one explicit fault set, parsed in the model's element
     syntax, checked against the (link-degraded) instance. *)
  let check_fault_spec inst model spec =
    let tokens =
      List.filter
        (fun s -> s <> "")
        (List.map String.trim (String.split_on_char ',' spec))
    in
    let rec parse_all acc = function
      | [] -> Ok (List.rev acc)
      | tok :: rest -> (
        match Fault_model.parse_elt tok with
        | None -> Error (Printf.sprintf "cannot parse fault element %S" tok)
        | Some e -> parse_all (e :: acc) rest)
    in
    match parse_all [] tokens with
    | Error e ->
      pf "error: %s@." e;
      2
    | Ok elts -> (
      (* `gdp verify --faults 3,7,2-5` without --model means the mixed
         model: a link element cannot be a node fault. *)
      let model =
        if
          Fault_model.is_node model
          && List.exists
               (function Fault_model.Link _ -> true | _ -> false)
               elts
        then begin
          pf "link faults present: using the mixed fault model@.";
          Fault_model.mixed inst
        end
        else model
      in
      let rec index_all acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest -> (
          match Fault_model.index_of model e with
          | Some i -> index_all (i :: acc) rest
          | None ->
            Error
              (Printf.sprintf "%s is not in the %s fault universe"
                 (Fault_model.elt_to_string e)
                 (Fault_model.name model)))
      in
      match index_all [] elts with
      | Error e ->
        pf "error: %s@." e;
        2
      | Ok indices -> (
        match Verify.check_model_set model indices with
        | Ok p ->
          pf "fault set %s tolerated (%s model)@."
            (Fault_model.describe model indices)
            (Fault_model.name model);
          pf "pipeline: %a@." Pipeline.pp p;
          0
        | Error e ->
          pf "fault set %s NOT tolerated (%s model): %s@."
            (Fault_model.describe model indices)
            (Fault_model.name model) e;
          1))
  in
  let run n k merged model_name fault_spec sample domains seed symmetry
      crosscheck ckpt_path resume_path trace_out =
    with_trace trace_out @@ fun () ->
    let inst = build_instance n k merged in
    match model_of_name inst model_name with
    | Error e ->
      pf "error: %s@." e;
      2
    | Ok model when fault_spec <> None ->
      check_fault_spec inst model (Option.get fault_spec)
    | Ok model ->
      verify_run inst model ~merged ~sample ~domains ~seed ~symmetry
        ~crosscheck ~ckpt_path ~resume_path
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify k-graceful-degradability.")
    Term.(const run $ n_arg $ k_arg $ merged_arg $ model_arg $ fault_set_arg
          $ sample_arg $ domains_arg $ seed_arg $ symmetry_arg
          $ crosscheck_arg $ checkpoint_arg $ resume_arg $ trace_out_arg)

(* -------------------- table -------------------- *)

let table_cmd =
  let max_n_arg =
    Arg.(value & opt int 14 & info [ "max-n" ] ~docv:"N" ~doc:"Largest n.")
  in
  let run k max_n =
    pf "%-4s %-9s %-9s %-30s@." "n" "max-deg" "optimal" "construction";
    for n = 1 to max_n do
      match Family.build ~n ~k with
      | inst ->
        pf "%-4d %-9d %-9b %-30s@." n
          (Instance.max_processor_degree inst)
          (Bounds.is_degree_optimal inst)
          inst.Instance.name
      | exception Family.Unsupported msg -> pf "%-4d %s@." n msg
    done;
    0
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Print the degree table for a given k.")
    Term.(const run $ k_arg $ max_n_arg)

(* -------------------- compare -------------------- *)

let compare_cmd =
  let sample_arg =
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"TRIALS"
           ~doc:"Sampled evaluation (default: exhaustive).")
  in
  let run n k sample seed =
    let sample = Option.map (fun t -> (t, seed)) sample in
    List.iter (fun r -> pf "%a@." Compare.pp_row r)
      (Compare.table ?sample ~n ~k ());
    0
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare against prior-work baselines (E12).")
    Term.(const run $ n_arg $ k_arg $ sample_arg $ seed_arg)

(* -------------------- simulate -------------------- *)

let simulate_cmd =
  let stages_arg =
    Arg.(value & opt string "video" & info [ "stages" ] ~docv:"CHAIN"
           ~doc:"Workload: a preset (video, ct, firbankN) or a chain like sub2|fir5|rle.")
  in
  let rounds_arg =
    Arg.(value & opt int 100 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds.")
  in
  let count_arg =
    Arg.(value & opt int 0 & info [ "inject" ] ~docv:"F"
           ~doc:"Number of random faults to inject during the run.")
  in
  let run n k stages rounds inject seed model_name trace_out =
    with_trace trace_out @@ fun () ->
    let inst = build_instance n k false in
    match model_of_name inst model_name with
    | Error e ->
      pf "error: %s@." e;
      2
    | Ok model ->
      let stage_chain =
        match Faultsim.Workload.parse stages with
        | Ok chain -> chain
        | Error e -> failwith e
      in
      let generalized = not (Fault_model.is_node model) in
      let machine = Faultsim.Machine.create ~model inst in
      if generalized then
        pf "fault model: %s (universe %d elements)@." (Fault_model.name model)
          (Fault_model.size model);
      let rng = Faultsim.Stream.Prng.create seed in
      let schedule =
        if inject = 0 then []
        else Faultsim.Injector.random_model ~rng model ~count:inject ~rounds
      in
      let metrics =
        Faultsim.Runner.run ~machine ~stages:stage_chain
          ~source:(Faultsim.Stream.Sine_mixture [ (0.013, 1.0); (0.05, 0.3) ])
          ~frame_length:256 ~rounds ~schedule ~seed ()
      in
      (if generalized && Faultsim.Machine.fault_count machine > 0 then
         pf "injected faults: %s@."
           (Fault_model.describe model (Faultsim.Machine.faults machine)));
      pf "%a@." Faultsim.Runner.pp_metrics metrics;
      if metrics.Faultsim.Runner.pipeline_lost then 1 else 0
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Stream a workload under fault injection.")
    Term.(const run $ n_arg $ k_arg $ stages_arg $ rounds_arg $ count_arg
          $ seed_arg $ model_arg $ trace_out_arg)

(* -------------------- chaos -------------------- *)

let chaos_cmd =
  let profile_arg =
    Arg.(value & opt string "chaos" & info [ "profile" ] ~docv:"PROFILE"
           ~doc:"Fault-rate profile: $(b,mild), $(b,aggressive) or \
                 $(b,chaos) (default).")
  in
  let count_arg =
    Arg.(value & opt int 1 & info [ "count" ] ~docv:"C"
           ~doc:"Run $(docv) consecutive seeds starting at --seed.")
  in
  let years_arg =
    Arg.(value & opt int 1 & info [ "years" ] ~docv:"Y"
           ~doc:"Virtual years of operation per run.")
  in
  let ops_arg =
    Arg.(value & opt int 200 & info [ "ops-per-day" ] ~docv:"OPS"
           ~doc:"Virtual operations per virtual day.")
  in
  let require_kinds_arg =
    Arg.(value & opt (some string) None & info [ "require-kinds" ]
           ~docv:"KINDS"
           ~doc:"Comma-separated fault kinds that must all be covered \
                 across the runs (node, link, colored, neighbor, burst, \
                 follow-up); exit 4 if any is missing.")
  in
  let events_arg =
    Arg.(value & flag & info [ "events" ]
           ~doc:"Print the full event trace of every run (violating runs \
                 always print their prefix).")
  in
  let run n k merged profile_name seed count years ops_per_day require events
      trace_out =
    with_trace trace_out @@ fun () ->
    match Faultsim.Scenario.profile_of_name profile_name with
    | None ->
      pf "error: unknown profile %S (expected mild, aggressive or chaos)@."
        profile_name;
      2
    | Some profile -> (
      let required =
        match require with
        | None -> Ok []
        | Some s ->
          let names =
            List.filter (fun x -> x <> "") (String.split_on_char ',' s)
          in
          List.fold_left
            (fun acc name ->
              match (acc, Faultsim.Scenario.kind_of_name name) with
              | Error e, _ -> Error e
              | Ok ks, Some kind -> Ok (kind :: ks)
              | Ok _, None -> Error name)
            (Ok []) names
      in
      match required with
      | Error name ->
        pf "error: unknown fault kind %S@." name;
        2
      | Ok required ->
        let config =
          { Faultsim.Scenario.default_config with years; ops_per_day }
        in
        let inst = build_instance n k merged in
        let violated = ref false in
        let covered = ref [] in
        for i = 0 to count - 1 do
          let r =
            Faultsim.Scenario.run ~config ~profile ~seed:(seed + i) inst
          in
          pf "%a@." Faultsim.Scenario.pp_run r;
          if events && r.Faultsim.Scenario.violation = None then
            List.iter
              (fun e -> pf "  %a@." Faultsim.Scenario.pp_entry e)
              r.Faultsim.Scenario.events;
          if r.Faultsim.Scenario.violation <> None then violated := true;
          List.iter
            (fun kind ->
              if not (List.mem kind !covered) then covered := kind :: !covered)
            r.Faultsim.Scenario.kinds_covered
        done;
        let missing =
          List.filter (fun kind -> not (List.mem kind !covered)) required
        in
        if !violated then 1
        else if missing <> [] then begin
          pf "missing required fault kinds: %s@."
            (String.concat ","
               (List.map Faultsim.Scenario.kind_name missing));
          4
        end
        else 0)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Deterministic chaos run: a seeded multi-year fault storm with \
             shadow-state invariant checks after every event; any failing \
             seed replays byte-identically.")
    Term.(const run $ n_arg $ k_arg $ merged_arg $ profile_arg $ seed_arg
          $ count_arg $ years_arg $ ops_arg $ require_kinds_arg $ events_arg
          $ trace_out_arg)

(* -------------------- figure -------------------- *)

let figure_cmd =
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FIGURE"
           ~doc:"Figure name (fig2..fig15); omit to list all.")
  in
  let run name out =
    match name with
    | None ->
      List.iter
        (fun e -> pf "%-8s %s@." e.Figures.id e.Figures.description)
        Figures.all;
      0
    | Some id -> (
      match Figures.find id with
      | None ->
        pf "unknown figure %s@." id;
        1
      | Some e ->
        let inst = e.Figures.build () in
        let path = Option.value out ~default:(id ^ ".dot") in
        Gdpn_graph.Dot.save ~path (Instance.to_dot inst);
        pf "%s (%s) -> %s@." id e.Figures.description path;
        0)
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate a paper figure as DOT.")
    Term.(const run $ name_arg $ out_arg)

(* -------------------- census -------------------- *)

let census_cmd =
  let run n k =
    match Impossibility.standard_census ~n ~k with
    | r ->
      pf "degree-(k+2) standard space for (n,k) = (%d,%d):@." n k;
      pf "  labeled degree-profile graphs: %d@." r.Impossibility.graphs_examined;
      pf "  (graph, assignment) candidates: %d@."
        r.Impossibility.assignments_examined;
      pf "  k-gracefully-degradable solutions: %d@."
        r.Impossibility.solutions_found;
      0
    | exception Invalid_argument msg ->
      pf "%s@." msg;
      2
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:"Exhaust the degree-(k+2) standard solution space (L3.14 E8).")
    Term.(const run $ n_arg $ k_arg)

(* -------------------- certify -------------------- *)

let certify_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Destination certificate file.")
  in
  let run n k file =
    let inst = build_instance n k false in
    pf "%a@." Instance.pp inst;
    match open_out_bin file with
    | exception Sys_error msg ->
      pf "error: %s@." msg;
      2
    | oc -> (
      (* A failed run leaves no partial certificate behind — but a
         device such as /dev/full is not ours to remove. *)
      let fail code msg =
        close_out_noerr oc;
        (match Unix.stat file with
        | { Unix.st_kind = Unix.S_REG; _ } -> Sys.remove file
        | _ | (exception Unix.Unix_error _) -> ());
        pf "%s@." msg;
        code
      in
      match
        Certify.write ~symmetry:(Instance.symmetry inst)
          (Fault_model.node inst) oc
      with
      | () ->
        let size = out_channel_length oc in
        close_out oc;
        pf "wrote %s (%d bytes); re-check with `gdp check-cert`@." file size;
        0
      | exception Failure msg -> fail 1 ("cannot certify: " ^ msg)
      | exception Sys_error msg -> fail 2 ("error: " ^ msg))
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Emit a witness certificate of k-graceful-degradability.")
    Term.(const run $ n_arg $ k_arg $ file_arg)

let check_cert_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Certificate file produced by `gdp certify`.")
  in
  let run n k file =
    let inst = build_instance n k false in
    let result =
      match open_in_bin file with
      | exception Sys_error msg -> Error msg
      | ic -> (
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        (* a directory opens, then fails its first read *)
        try Ok (Certify.check inst ic)
        with Sys_error msg -> Error (file ^ ": " ^ msg))
    in
    match result with
    | Ok (Ok count) ->
      pf "certificate valid: %d fault sets witnessed@." count;
      0
    | Ok (Error e) ->
      pf "certificate INVALID: %s@." e;
      1
    | Error msg ->
      pf "error: %s@." msg;
      2
  in
  Cmd.v
    (Cmd.info "check-cert"
       ~doc:"Validate a witness certificate (no solver involved).")
    Term.(const run $ n_arg $ k_arg $ file_arg)

(* -------------------- console -------------------- *)

let console_cmd =
  let run n k =
    let inst = build_instance n k false in
    let console = Faultsim.Console.create inst in
    pf "gdpn console — 'help' for commands, 'quit' to leave@.";
    let rec loop () =
      print_string "> ";
      match read_line () with
      | exception End_of_file -> 0
      | line -> (
        match Faultsim.Console.eval console line with
        | `Quit -> 0
        | `Reply text ->
          if text <> "" then pf "%s@." text;
          loop ())
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "console" ~doc:"Interactive machine controller on stdin.")
    Term.(const run $ n_arg $ k_arg)

(* -------------------- plan -------------------- *)

let plan_cmd =
  let prob_arg =
    Arg.(required & opt (some float) None & info [ "p" ] ~docv:"PROB"
           ~doc:"Per-node failure probability over the mission time.")
  in
  let target_arg =
    Arg.(value & opt float 0.99 & info [ "target" ] ~docv:"P"
           ~doc:"Required survival probability (Wilson lower bound).")
  in
  let trials_arg =
    Arg.(value & opt int 400 & info [ "trials" ] ~docv:"T"
           ~doc:"Monte Carlo trials per candidate k.")
  in
  let run n prob target trials seed =
    let rng = Random.State.make [| seed |] in
    pf "per-node failure probability %.4f, target survival %.4f@." prob target;
    (match
       Planner.recommend_k ~rng ~trials ~n ~node_failure_prob:prob ~target ()
     with
    | Some (k, est) ->
      pf "recommended k = %d: %a@." k Planner.pp_estimate est;
      pf "(guarantee-only bound at that k: %.4f)@."
        (Planner.guarantee_only_bound ~n ~k ~node_failure_prob:prob)
    | None -> pf "no k <= 8 reaches the target; lower p or the target@.");
    0
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Recommend the smallest k for a target survival probability.")
    Term.(const run $ n_arg $ prob_arg $ target_arg $ trials_arg $ seed_arg)

(* -------------------- bounds -------------------- *)

let bounds_cmd =
  let max_n_arg =
    Arg.(value & opt int 12 & info [ "max-n" ] ~docv:"N" ~doc:"Largest n.")
  in
  let run k max_n =
    pf "%-4s %-11s %s@." "n" "lower-bnd" "why";
    for n = 1 to max_n do
      let reasons =
        List.filter_map
          (fun (cond, why) -> if cond then Some why else None)
          [
            (true, "k+2 (Cor 3.2)");
            (Bounds.parity_bound_applies ~n ~k, "k+3: n even, k odd (L3.5)");
            (n = 2, "k+3: n = 2 (Cor 3.10)");
            (n = 3 && k > 1, "k+3: n = 3 (L3.11)");
            (n = 5 && k = 2, "k+3: (5,2) (L3.14)");
          ]
      in
      pf "%-4d %-11d %s@." n
        (Bounds.degree_lower_bound ~n ~k)
        (String.concat "; " reasons)
    done;
    0
  in
  Cmd.v
    (Cmd.info "bounds"
       ~doc:"Print the proven degree lower bounds and which lemma fires.")
    Term.(const run $ k_arg $ max_n_arg)

(* -------------------- draw -------------------- *)

let draw_cmd =
  let run n k faults =
    let inst = build_instance n k false in
    let pipeline =
      match Reconfig.solve_list inst ~faults with
      | Reconfig.Pipeline p -> Some p
      | Reconfig.No_pipeline | Reconfig.Gave_up -> None
    in
    pf "%s@." (Render.summary inst);
    (match inst.Instance.strategy with
    | Instance.Circulant_layout _ ->
      pf "%s@." (Render.ring ~faults ?pipeline inst)
    | _ -> pf "%s@." (Render.adjacency inst));
    (match pipeline with
    | Some p -> pf "pipeline: %s@." (Render.embedding inst p)
    | None -> pf "no pipeline for this fault set@.");
    0
  in
  Cmd.v
    (Cmd.info "draw" ~doc:"ASCII rendering of an instance and embedding.")
    Term.(const run $ n_arg $ k_arg $ faults_arg)

(* -------------------- save / check -------------------- *)

let save_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Destination .gdpn file.")
  in
  let run n k merged file =
    let inst = build_instance n k merged in
    Serial.save ~path:file inst;
    pf "wrote %s (%a)@." file Instance.pp inst;
    0
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Serialize a construction to a .gdpn file.")
    Term.(const run $ n_arg $ k_arg $ merged_arg $ file_arg)

let check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"A .gdpn instance file (see Serial's format).")
  in
  let sample_arg =
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"TRIALS"
           ~doc:"Random sampling instead of exhaustive enumeration.")
  in
  let run file sample seed =
    match Serial.load ~path:file with
    | Error e ->
      pf "error: %s@." e;
      2
    | Ok inst ->
      pf "%a@." Instance.pp inst;
      pf "standard: %b   node-optimal: %b@." (Instance.is_standard inst)
        (Instance.is_node_optimal inst);
      let report =
        match sample with
        | Some trials ->
          Verify.sampled ~rng:(Random.State.make [| seed |]) ~trials inst
        | None -> Verify.exhaustive inst
      in
      pf "%a@." Verify.pp_report report;
      if Verify.is_k_gd report then 0 else 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Load a user-supplied instance file and verify it.")
    Term.(const run $ file_arg $ sample_arg $ seed_arg)

(* -------------------- survival -------------------- *)

let survival_cmd =
  let trials_arg =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Trials.")
  in
  let run n k trials seed =
    let rng () = Random.State.make [| seed |] in
    pf "%-14s %s@." "scheme" "faults absorbed before stream loss";
    let inst = build_instance n k false in
    pf "%-14s %a@." "gdpn"
      Gdpn_baselines.Survival.pp_stats
      (Gdpn_baselines.Survival.instance_lifetime ~rng:(rng ()) ~trials inst);
    List.iter
      (fun scheme ->
        pf "%-14s %a@." scheme.Gdpn_baselines.Scheme.name
          Gdpn_baselines.Survival.pp_stats
          (Gdpn_baselines.Survival.scheme_lifetime ~rng:(rng ()) ~trials
             scheme))
      [ Hayes.scheme ~n ~k; Spares.scheme ~n ~k;
        Gdpn_baselines.Rosenberg.scheme ~n ~k ];
    0
  in
  Cmd.v
    (Cmd.info "survival"
       ~doc:"Beyond-spec lifetime: random faults until stream loss (E15).")
    Term.(const run $ n_arg $ k_arg $ trials_arg $ seed_arg)

(* -------------------- links -------------------- *)

let links_cmd =
  let run n k =
    let inst = build_instance n k false in
    pf "%a@." Instance.pp inst;
    pf "surveying every mixed node/link fault set of size <= %d ...@." k;
    let s = Link_faults.survey_exhaustive inst in
    pf "%a@." Link_faults.pp_survey s;
    if s.Link_faults.lost = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "links"
       ~doc:"Survey graceful vs degraded tolerance of link faults (E13).")
    Term.(const run $ n_arg $ k_arg)

(* -------------------- tolerance -------------------- *)

let tolerance_cmd =
  let run n k merged =
    let inst = build_instance n k merged in
    pf "%a@." Instance.pp inst;
    (* One drain of the sets of size 0..k+1 answers both lines: the
       tolerance is one less than the smallest breaking set's size. *)
    let breaking = Verify.breaking_fault_set inst in
    let t =
      match breaking with Some w -> List.length w - 1 | None -> k + 1
    in
    pf "measured structural fault tolerance: %d (designed: %d)@." t k;
    (match breaking with
    | Some witness ->
      pf "smallest breaking fault set: {%s}@."
        (String.concat "," (List.map string_of_int witness))
    | None -> pf "no breaking fault set up to size %d@." (k + 1));
    if t = k then 0 else 1
  in
  Cmd.v
    (Cmd.info "tolerance"
       ~doc:"Measure the exact fault tolerance by exhaustive search.")
    Term.(const run $ n_arg $ k_arg $ merged_arg)

(* -------------------- trace -------------------- *)

let trace_cmd =
  let rounds_arg =
    Arg.(value & opt int 50 & info [ "rounds" ] ~docv:"R" ~doc:"Rounds.")
  in
  let count_arg =
    Arg.(value & opt int 2 & info [ "inject" ] ~docv:"F"
           ~doc:"Random faults to inject.")
  in
  let run n k rounds inject seed =
    let inst = build_instance n k false in
    let machine = Faultsim.Machine.create inst in
    let rng = Faultsim.Stream.Prng.create seed in
    let schedule = Faultsim.Injector.random ~rng inst ~count:inject ~rounds in
    let trace = Faultsim.Trace.recorder () in
    let metrics =
      Faultsim.Runner.run ~machine
        ~stages:(Faultsim.Stage.video_codec ())
        ~source:(Faultsim.Stream.Sine_mixture [ (0.013, 1.0) ])
        ~frame_length:256 ~rounds ~schedule ~trace ()
    in
    print_endline (Faultsim.Trace.to_csv trace);
    pf "# %a@." Faultsim.Runner.pp_metrics metrics;
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a traced simulation and print the event log as CSV.")
    Term.(const run $ n_arg $ k_arg $ rounds_arg $ count_arg $ seed_arg)

(* -------------------- stats -------------------- *)

let stats_cmd =
  let rounds_arg =
    Arg.(value & opt int 50 & info [ "rounds" ] ~docv:"R"
           ~doc:"Simulation rounds in the workload.")
  in
  let inject_arg =
    Arg.(value & opt int 2 & info [ "inject" ] ~docv:"F"
           ~doc:"Random faults injected during the simulation.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the snapshot as one JSON object instead of a table.")
  in
  let store_arg =
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE"
           ~doc:"Attach the precompiled plan store at $(docv) as the \
                 engine's L2 tier before running the workload, so the \
                 engine.store_* counters are exercised.")
  in
  let run n k rounds inject seed json store trace_out =
    with_trace trace_out @@ fun () ->
    let inst = build_instance n k false in
    (* A representative workload that exercises every instrumented layer:
       an exhaustive verification (solver + verify counters), then a
       fault-injected simulation (engine cache + machine + runner). *)
    let engine = Engine.create inst in
    (match store with
    | None -> ()
    | Some path -> (
      match Engine.attach_store engine ~path with
      | Ok () -> ()
      | Error e -> pf "warning: plan store not attached: %s@." e));
    let report =
      Engine.Parallel.verify_exhaustive ~budget:(Engine.budget engine)
        ~domains:1 inst
    in
    let machine = Faultsim.Machine.create ~engine inst in
    let rng = Faultsim.Stream.Prng.create seed in
    let schedule =
      if inject = 0 then []
      else Faultsim.Injector.random ~rng inst ~count:inject ~rounds
    in
    let metrics =
      Faultsim.Runner.run ~machine
        ~stages:(Faultsim.Stage.video_codec ())
        ~source:(Faultsim.Stream.Sine_mixture [ (0.013, 1.0) ])
        ~frame_length:256 ~rounds ~schedule ~seed ()
    in
    let snap = Metrics.snapshot () in
    if json then print_endline (Metrics.snapshot_to_json snap)
    else begin
      pf "%a@." Instance.pp inst;
      pf "workload: verify (%a), simulate (%a)@." Verify.pp_report report
        Faultsim.Runner.pp_metrics metrics;
      let occupied =
        Array.fold_left (fun acc (n, _) -> acc + n) 0
          (Engine.cache_shard_stats engine)
      in
      pf "plan cache: %d/%d entries (%d total incl. models) across %d \
          shards, %d evicted@."
        occupied (Engine.cache_capacity engine) (Engine.cache_total engine)
        (Array.length (Engine.cache_shard_stats engine))
        (Engine.cache_evictions engine);
      (match Engine.plan_store engine with
      | None -> pf "plan store: none attached@."
      | Some s ->
        let module Plan_store = Gdpn_engine.Plan_store in
        pf "plan store: %d records covering %d fault sets%s, %d bytes \
            mmap'd@."
          (Plan_store.records s) (Plan_store.total_sets s)
          (if Plan_store.orbit_compressed s then " (orbit-compressed)"
           else "")
          (Plan_store.mmap_bytes s));
      pf "@.%a@." Metrics.pp_snapshot snap
    end;
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a representative workload and dump the metrics registry.")
    Term.(const run $ n_arg $ k_arg $ rounds_arg $ inject_arg $ seed_arg
          $ json_arg $ store_arg $ trace_out_arg)

(* -------------------- compile-plans -------------------- *)

(* Offline plan-warehouse compiler: Engine.compile_plans drains the
   fault space (one representative per automorphism orbit when the node
   model has a nontrivial symmetry group), solving every representative
   from scratch, and writes the mmap-ready Plan_store file.  With
   --checkpoint each drained unit is recorded in the Checkpoint
   discipline, so a SIGKILL mid-compile loses at most the units in
   flight. *)
let compile_plans_cmd =
  let module Plan_store = Gdpn_engine.Plan_store in
  let run n k model_name out max_size flat domains budget ckpt_path
      resume_path =
    let inst = build_instance n k false in
    match model_of_name inst model_name with
    | Error e ->
      pf "error: %s@." e;
      2
    | Ok model -> (
      pf "%a@." Instance.pp inst;
      if not (Fault_model.is_node model) then print_model model;
      match
        Engine.compile_plans ~budget ~domains ~flat ?max_size
          ?checkpoint:ckpt_path ?resume:resume_path model ~path:out
      with
      | Error e ->
        pf "error: cannot resume: %s@." e;
        2
      | Ok c -> (
        Option.iter (pf "%a@." Gdpn_engine.Checkpoint.pp_resumed) c.c_resumed;
        Option.iter (pf "checkpoint: %s@.") ckpt_path;
        if c.c_gave_up > 0 then
          pf "warning: %d representatives hit the solver budget and were \
              left out of the store (they will re-solve at serve time)@."
            c.c_gave_up;
        (* Self-check: reopen what we just published and audit every
           slot, so a compile never hands the daemon a store it would
           refuse or mis-serve. *)
        match Plan_store.open_path ~path:out with
        | Error e ->
          pf "error: written store fails to open: %s@." e;
          2
        | Ok store -> (
          let r = Plan_store.validate store in
          Plan_store.close store;
          match r with
          | Error e ->
            pf "error: written store fails validation: %s@." e;
            2
          | Ok records ->
            let total = Plan_store.total_sets store in
            let bytes = Plan_store.mmap_bytes store in
            pf "store: %s — %d records covering %d fault sets (%.1fx \
                compression), %d bytes (%.1f per record)@."
              out records total
              (float_of_int total /. float_of_int (Stdlib.max 1 records))
              bytes
              (float_of_int bytes /. float_of_int (Stdlib.max 1 records));
            0)))
  in
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Write the plan store to $(docv).")
  in
  let max_size_arg =
    Arg.(value & opt (some int) None
         & info [ "max-size" ] ~docv:"S"
             ~doc:"Largest fault-set size to precompile (default: the \
                   model's fault tolerance).")
  in
  let flat_arg =
    Arg.(value & flag
         & info [ "flat" ]
             ~doc:"Disable orbit compression: one record per fault set \
                   even when the instance has symmetry.")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Solve representatives over $(docv) OCaml domains.")
  in
  let budget_arg =
    Arg.(value & opt int 2_000_000
         & info [ "budget" ] ~docv:"B"
             ~doc:"Solver expansion budget per fault set (the engine's \
                   default).")
  in
  let ckpt_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Record each solved unit in the checkpoint $(docv) so an \
                   interrupted compile can resume.")
  in
  let resume_arg =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Resume from (and keep appending to) the checkpoint at \
                   $(docv); solved units are not re-solved and the final \
                   store is byte-identical to an uninterrupted run's.")
  in
  Cmd.v
    (Cmd.info "compile-plans"
       ~doc:"Precompile the fault universe into an mmap-ready plan store \
             for instant cold-start serving.")
    Term.(const run $ n_arg $ k_arg $ model_arg $ out_arg $ max_size_arg
          $ flat_arg $ domains_arg $ budget_arg $ ckpt_arg $ resume_arg)

(* -------------------- serve / bench-client -------------------- *)

(* The daemon front end lives in Serve_cli, shared with the standalone
   [gdpd] binary. *)
let serve_cmd =
  Cmd.v (Cmd.info "serve" ~doc:Serve_cli.serve_doc) Serve_cli.serve_term

let bench_client_cmd =
  Cmd.v
    (Cmd.info "bench-client" ~doc:Serve_cli.bench_client_doc)
    Serve_cli.bench_client_term

(* -------------------- impossibility -------------------- *)

let impossibility_cmd =
  let run () =
    let r = Impossibility.lemma_3_14 () in
    pf "graphs examined: %d@." r.Impossibility.graphs_examined;
    pf "candidates examined: %d@." r.Impossibility.assignments_examined;
    pf "solutions found: %d (Lemma 3.14 predicts 0)@."
      r.Impossibility.solutions_found;
    if r.Impossibility.solutions_found = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "impossibility"
       ~doc:"Machine-check Lemma 3.14 by graph-space exhaustion.")
    Term.(const run $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "gdp" ~version:"1.0.0"
      ~doc:"Gracefully degradable pipeline networks (Cypher & Laing, IPPS'97)."
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            build_cmd; solve_cmd; verify_cmd; table_cmd; compare_cmd;
            simulate_cmd; chaos_cmd; figure_cmd; impossibility_cmd; links_cmd;
            tolerance_cmd; trace_cmd; save_cmd; check_cmd; survival_cmd;
            draw_cmd; bounds_cmd; console_cmd; plan_cmd; certify_cmd;
            check_cert_cmd; census_cmd; stats_cmd; compile_plans_cmd;
            serve_cmd; bench_client_cmd;
          ]))
