open Gdpn_core
module Bitset = Gdpn_graph.Bitset
module Graph = Gdpn_graph.Graph
module Combinat = Gdpn_graph.Combinat
module Engine = Gdpn_engine.Engine
module Plan_store = Gdpn_engine.Plan_store
module Metrics = Gdpn_obs.Metrics

(* Observability instruments (process-wide, see Gdpn_obs.Metrics). *)
let m_runs = Metrics.counter "scenario.runs"
let m_events = Metrics.counter "scenario.events"
let m_violations = Metrics.counter "scenario.violations"

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)
(* ------------------------------------------------------------------ *)

type profile = Mild | Aggressive | Chaos

let profile_name = function
  | Mild -> "mild"
  | Aggressive -> "aggressive"
  | Chaos -> "chaos"

let profile_of_name = function
  | "mild" -> Some Mild
  | "aggressive" -> Some Aggressive
  | "chaos" -> Some Chaos
  | _ -> None

type rates = {
  node_death_ppm : int;
  link_cut_ppm : int;
  colored_burst_ppm : int;
  neighbor_kill_ppm : int;
  multi_burst_ppm : int;
  follow_up_ppm : int;
  crash_restart_ppm : int;
  cache_evict_ppm : int;
  store_degrade_ppm : int;
  repair_ppm : int;
}

(* Mild ~ a component MTBF of years; chaos ~ a fault storm where repair
   barely keeps up.  All per virtual op except follow_up_ppm (per
   applied fault event). *)
let rates_of = function
  | Mild ->
    {
      node_death_ppm = 60;
      link_cut_ppm = 30;
      colored_burst_ppm = 8;
      neighbor_kill_ppm = 8;
      multi_burst_ppm = 8;
      follow_up_ppm = 50_000;
      crash_restart_ppm = 15;
      cache_evict_ppm = 20;
      store_degrade_ppm = 15;
      repair_ppm = 400;
    }
  | Aggressive ->
    {
      node_death_ppm = 400;
      link_cut_ppm = 200;
      colored_burst_ppm = 60;
      neighbor_kill_ppm = 60;
      multi_burst_ppm = 60;
      follow_up_ppm = 150_000;
      crash_restart_ppm = 80;
      cache_evict_ppm = 100;
      store_degrade_ppm = 80;
      repair_ppm = 2_000;
    }
  | Chaos ->
    {
      node_death_ppm = 1_500;
      link_cut_ppm = 900;
      colored_burst_ppm = 300;
      neighbor_kill_ppm = 300;
      multi_burst_ppm = 300;
      follow_up_ppm = 250_000;
      crash_restart_ppm = 300;
      cache_evict_ppm = 400;
      store_degrade_ppm = 300;
      repair_ppm = 5_000;
    }

type config = {
  years : int;
  ops_per_day : int;
  stream_every : int;
  stream_tokens : int;
}

let default_config =
  { years = 1; ops_per_day = 200; stream_every = 2_000; stream_tokens = 12 }

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type kind =
  | Node_death
  | Link_cut
  | Colored_burst
  | Neighbor_kill
  | Multi_burst
  | Follow_up

let kind_code = function
  | Node_death -> 0
  | Link_cut -> 1
  | Colored_burst -> 2
  | Neighbor_kill -> 3
  | Multi_burst -> 4
  | Follow_up -> 5

let all_kinds =
  [ Node_death; Link_cut; Colored_burst; Neighbor_kill; Multi_burst; Follow_up ]

let kind_name = function
  | Node_death -> "node"
  | Link_cut -> "link"
  | Colored_burst -> "colored"
  | Neighbor_kill -> "neighbor"
  | Multi_burst -> "burst"
  | Follow_up -> "follow-up"

let kind_of_name s = List.find_opt (fun k -> kind_name k = s) all_kinds

type store_mode = Store_attach | Store_detach | Store_corrupt

let store_mode_code = function
  | Store_attach -> 0
  | Store_detach -> 1
  | Store_corrupt -> 2

let store_mode_name = function
  | Store_attach -> "attach"
  | Store_detach -> "detach"
  | Store_corrupt -> "corrupt"

type event =
  | Inject of {
      kind : kind;
      elts : Fault_model.elt list;
      applied : int;
      lost : bool;
    }
  | Stream of {
      tokens : int;
      mid_fault : Fault_model.elt option;
      applied : bool;
      lost : bool;
    }
  | Crash_restart
  | Cache_evict of { before : int; after : int }
  | Store_degrade of { mode : store_mode; attached : bool }
  | Repair of { removed : Fault_model.elt list; full : bool; lost : bool }

type entry = { op : int; event : event }
type violation = { v_op : int; v_invariant : string; v_detail : string }

type run = {
  profile : profile;
  seed : int;
  ops : int;
  events : entry list;
  faults_applied : int;
  kinds_covered : kind list;
  repairs : int;
  crashes : int;
  cache_evicts : int;
  store_degrades : int;
  streams : int;
  losses : int;
  digest : int;
  violation : violation option;
}

(* ------------------------------------------------------------------ *)
(* Invariant checkers                                                  *)
(* ------------------------------------------------------------------ *)

let fault_mask_of m fm =
  let mask = Bitset.create (Fault_model.size fm) in
  List.iter (Bitset.add mask) (Machine.faults m);
  mask

let ints l = String.concat "," (List.map string_of_int l)

let check_accounting m ~shadow =
  let fl = Machine.faults m in
  if fl = shadow then Ok ()
  else
    Error
      (Printf.sprintf "machine fault list [%s] diverged from shadow [%s]"
         (ints fl) (ints shadow))

let check_coverage m =
  match Machine.pipeline m with
  | None -> Ok ()
  | Some p -> (
    let fm = Machine.model m in
    let mask = fault_mask_of m fm in
    match Fault_model.validate fm ~faults:mask p.Pipeline.nodes with
    | Error e -> Error ("embedded pipeline is invalid: " ^ e)
    | Ok _ ->
      let used = Machine.used_processor_count m in
      let healthy = Machine.healthy_processor_count m in
      if used <> healthy then
        Error
          (Printf.sprintf
             "%d healthy processors but only %d on the pipeline" healthy used)
      else Ok ())

let check_coherence m =
  let fm = Machine.model m in
  let mask = fault_mask_of m fm in
  let budget = Engine.budget (Machine.engine m) in
  (* Same budget as the machine's engine, but no plan cache and no
     splice: solvability must agree with the cached path exactly. *)
  let scratch = Fault_model.solve ~budget fm ~faults:mask in
  match (Machine.pipeline m, scratch) with
  | Some _, Reconfig.Pipeline _ | None, Reconfig.No_pipeline -> Ok ()
  | _, Reconfig.Gave_up -> Ok () (* inconclusive: cannot contradict *)
  | Some _, Reconfig.No_pipeline ->
    Error
      "machine holds a pipeline but a scratch solve proves none exists \
       (plan cache returned a stale or bogus plan)"
  | None, Reconfig.Pipeline _ ->
    Error
      "machine lost the stream but a scratch solve finds a pipeline \
       (cached path gave up too early)"

let check_stream ~stages ~tokens (o : Des.outcome) =
  let exception Bad of string in
  try
    if (not o.Des.stream_lost) && o.Des.tokens_completed <> tokens then
      raise
        (Bad
           (Printf.sprintf "%d of %d tokens completed on an unlost stream"
              o.Des.tokens_completed tokens));
    let seen = Array.make_matrix (max 1 tokens) (max 1 stages) 0 in
    let start = Array.make_matrix (max 1 tokens) (max 1 stages) 0 in
    let finish = Array.make_matrix (max 1 tokens) (max 1 stages) 0 in
    List.iter
      (fun (a : Des.activity) ->
        if a.Des.token < 0 || a.Des.token >= tokens then
          raise (Bad (Printf.sprintf "phantom token %d in activity" a.Des.token));
        if a.Des.stage < 0 || a.Des.stage >= stages then
          raise (Bad (Printf.sprintf "phantom stage %d in activity" a.Des.stage));
        if seen.(a.Des.token).(a.Des.stage) > 0 then
          raise
            (Bad
               (Printf.sprintf "token %d duplicated at stage %d" a.Des.token
                  a.Des.stage));
        seen.(a.Des.token).(a.Des.stage) <- 1;
        start.(a.Des.token).(a.Des.stage) <- a.Des.start;
        finish.(a.Des.token).(a.Des.stage) <- a.Des.finish)
      o.Des.activity;
    (* Conservation: completed tokens visited every stage; unfinished
       tokens (lost streams only) stop at a prefix of the chain. *)
    for t = 0 to tokens - 1 do
      let completed = t < Array.length o.Des.latencies && o.Des.latencies.(t) >= 0 in
      if completed then begin
        for s = 0 to stages - 1 do
          if seen.(t).(s) = 0 then
            raise
              (Bad
                 (Printf.sprintf
                    "completed token %d never served at stage %d (token lost)" t
                    s))
        done
      end
      else
        for s = 0 to stages - 2 do
          if seen.(t).(s) = 0 && seen.(t).(s + 1) > 0 then
            raise
              (Bad
                 (Printf.sprintf
                    "token %d served at stage %d but skipped stage %d" t (s + 1)
                    s))
        done;
      (* Per-token stage order: a token enters stage s+1 only after
         leaving stage s. *)
      for s = 0 to stages - 2 do
        if
          seen.(t).(s) > 0
          && seen.(t).(s + 1) > 0
          && start.(t).(s + 1) < finish.(t).(s)
        then
          raise
            (Bad
               (Printf.sprintf
                  "token %d entered stage %d at %d before leaving stage %d at \
                   %d" t (s + 1)
                  start.(t).(s + 1)
                  s
                  finish.(t).(s)))
      done
    done;
    (* Per-stage FIFO: tokens start each stage in index order. *)
    for s = 0 to stages - 1 do
      let at_stage = ref [] in
      for t = tokens - 1 downto 0 do
        if seen.(t).(s) > 0 then at_stage := (start.(t).(s), t) :: !at_stage
      done;
      let by_start = List.sort compare !at_stage in
      ignore
        (List.fold_left
           (fun prev (st, t) ->
             (match prev with
             | Some (pst, pt) when pt > t && pst < st ->
               raise
                 (Bad
                    (Printf.sprintf
                       "stream order violated at stage %d: token %d (start \
                        %d) overtook token %d (start %d)" s pt pst t st))
             | _ -> ());
             Some (st, t))
           None by_start)
    done;
    Ok ()
  with Bad d -> Error d

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let elt_list_to_string elts =
  String.concat "," (List.map Fault_model.elt_to_string elts)

let pp_event ppf = function
  | Inject { kind; elts; applied; lost } ->
    Format.fprintf ppf "inject %-9s [%s] applied=%d%s" (kind_name kind)
      (elt_list_to_string elts) applied
      (if lost then " LOST" else "")
  | Stream { tokens; mid_fault; applied; lost } ->
    Format.fprintf ppf "stream %d tokens%s%s" tokens
      (match mid_fault with
      | None -> ""
      | Some e ->
        Printf.sprintf " mid-fault=%s%s" (Fault_model.elt_to_string e)
          (if applied then "" else " (already down)"))
      (if lost then " LOST" else "")
  | Crash_restart -> Format.fprintf ppf "engine crash/restart"
  | Cache_evict { before; after } ->
    Format.fprintf ppf "plan-cache evict %d -> %d entries" before after
  | Store_degrade { mode; attached } ->
    Format.fprintf ppf "plan-store %s (%s)" (store_mode_name mode)
      (if attached then "store attached" else "no store")
  | Repair { removed; full; lost } ->
    Format.fprintf ppf "repair %s [%s]%s"
      (if full then "all" else "oldest")
      (elt_list_to_string removed)
      (if lost then " LOST" else "")

let pp_entry ppf { op; event } =
  Format.fprintf ppf "[op %6d] %a" op pp_event event

let pp_run ppf r =
  Format.fprintf ppf
    "%s seed=%d ops=%d events=%d faults=%d repairs=%d crashes=%d evicts=%d \
     stores=%d streams=%d losses=%d kinds=%s digest=%016x"
    (profile_name r.profile) r.seed r.ops (List.length r.events)
    r.faults_applied r.repairs r.crashes r.cache_evicts r.store_degrades
    r.streams r.losses
    (match r.kinds_covered with
    | [] -> "-"
    | ks -> String.concat "," (List.map kind_name ks))
    r.digest;
  match r.violation with
  | None -> ()
  | Some v ->
    Format.fprintf ppf
      "@.INVARIANT VIOLATION at op %d: %s — %s@.event prefix (%d events):" v.v_op
      v.v_invariant v.v_detail (List.length r.events);
    List.iter (fun e -> Format.fprintf ppf "@.  %a" pp_entry e) r.events;
    Format.fprintf ppf
      "@.replay: gdp chaos --profile %s --seed %d  (byte-identical)"
      (profile_name r.profile) r.seed

(* ------------------------------------------------------------------ *)
(* The harness                                                         *)
(* ------------------------------------------------------------------ *)

exception Violation_found of violation

(* Splitmix-style mixing for the run digest: order-sensitive, cheap, and
   stable across platforms (63-bit int arithmetic only). *)
let mix h v =
  let h = h lxor ((v + 0x9E3779B97F4A7C1) * 0xBF58476D1CE4E5B) in
  let h = (h lxor (h lsr 30)) * 0x94D049BB133111E in
  (h lxor (h lsr 27)) land max_int

let stream_stages = 5

let run ?(config = default_config) ?perturb ~profile ~seed inst =
  Metrics.incr m_runs;
  let rates = rates_of profile in
  let rng = Stream.Prng.create seed in
  let model = Fault_model.mixed inst in
  let engine = Engine.create inst in
  let machine = ref (Machine.create ~engine ~model inst) in
  let order = Instance.order inst in
  let usize = Fault_model.size model in
  let n_links = usize - order in
  let graph = inst.Instance.graph in
  let stages = Stage.fir_bank stream_stages in
  let des_config = Des.default_config in
  (* Shadow state: what the harness believes is faulty (universe
     indices, newest first) — maintained independently of the machine
     and reconciled after every event. *)
  let shadow = ref [] in
  let trace = ref [] in
  let digest = ref 0 in
  let faults_applied = ref 0 in
  let repairs = ref 0 in
  let crashes = ref 0 in
  let cache_evicts = ref 0 in
  let store_degrades = ref 0 in
  let streams = ref 0 in
  let losses = ref 0 in
  let covered = Array.make (List.length all_kinds) false in
  let mark_kind k = covered.(kind_code k) <- true in

  let hit ppm = Stream.Prng.int rng 1_000_000 < ppm in
  let mix_int v = digest := mix !digest v in
  let mix_machine () =
    let m = !machine in
    mix_int (Machine.fault_count m);
    mix_int (Machine.used_processor_count m);
    mix_int (Machine.healthy_processor_count m);
    match Machine.pipeline m with
    | None -> mix_int (-1)
    | Some p -> List.iter mix_int p.Pipeline.nodes
  in
  let elt_index e =
    match Fault_model.index_of model e with
    | Some i -> i
    | None -> invalid_arg "Scenario: element outside the mixed universe"
  in
  let mix_event = function
    | Inject { kind; elts; applied; lost } ->
      mix_int 1;
      mix_int (kind_code kind);
      List.iter (fun e -> mix_int (elt_index e)) elts;
      mix_int applied;
      mix_int (Bool.to_int lost)
    | Stream { tokens; mid_fault; applied; lost } ->
      mix_int 2;
      mix_int tokens;
      mix_int (match mid_fault with None -> -1 | Some e -> elt_index e);
      mix_int (Bool.to_int applied);
      mix_int (Bool.to_int lost)
    | Crash_restart -> mix_int 3
    | Cache_evict { before; after } ->
      mix_int 5;
      mix_int before;
      mix_int after
    | Store_degrade { mode; attached } ->
      mix_int 6;
      mix_int (store_mode_code mode);
      mix_int (Bool.to_int attached)
    | Repair { removed; full; lost } ->
      mix_int 4;
      List.iter (fun e -> mix_int (elt_index e)) removed;
      mix_int (Bool.to_int full);
      mix_int (Bool.to_int lost)
  in
  let record op event =
    Metrics.incr m_events;
    trace := { op; event } :: !trace;
    mix_event event;
    mix_machine ()
  in
  let fail op invariant detail =
    raise (Violation_found { v_op = op; v_invariant = invariant; v_detail = detail })
  in
  let check op =
    let m = !machine in
    (match check_accounting m ~shadow:(List.rev !shadow) with
    | Ok () -> ()
    | Error d -> fail op "accounting" d);
    (match check_coverage m with
    | Ok () -> ()
    | Error d -> fail op "coverage" d);
    match check_coherence m with
    | Ok () -> ()
    | Error d -> fail op "coherence" d
  in
  (* Beyond-spec loss recovery: field service replaces every faulty
     component at once and the machine restarts clean (the shared engine
     keeps its warm cache — coherence must hold across that too). *)
  let recover op =
    incr losses;
    let removed = List.rev_map (Fault_model.element model) !shadow in
    shadow := [];
    machine := Machine.create ~engine ~model inst;
    incr repairs;
    record op (Repair { removed; full = true; lost = false });
    check op
  in
  let random_elt () = Stream.Prng.int rng usize in
  let rec inject_burst op kind idxs =
    let applied = ref 0 in
    let lost = ref false in
    List.iter
      (fun idx ->
        match Machine.inject !machine idx with
        | Machine.Unchanged -> ()
        | Machine.Remapped _ ->
          incr applied;
          shadow := idx :: !shadow
        | Machine.Lost ->
          incr applied;
          shadow := idx :: !shadow;
          lost := true)
      idxs;
    let elts = List.map (Fault_model.element model) idxs in
    record op (Inject { kind; elts; applied = !applied; lost = !lost });
    if !applied > 0 then begin
      faults_applied := !faults_applied + !applied;
      mark_kind kind
    end;
    check op;
    if !lost then recover op;
    (* A fault during reconfiguration: while the repair of this event is
       still in flight, another element fails. *)
    if !applied > 0 && kind <> Follow_up && hit rates.follow_up_ppm then
      inject_burst op Follow_up [ random_elt () ]
  in
  let stream op ~mid =
    incr streams;
    let m = !machine in
    let before = Machine.fault_count m in
    let faults =
      match mid with
      | None -> []
      | Some idx ->
        let at =
          Stream.Prng.int rng (config.stream_tokens * des_config.Des.arrival_period)
        in
        [ (at, idx) ]
    in
    let o =
      Des.simulate ~on_lost:`Stop ~machine:m ~stages ~config:des_config ~faults
        ~tokens:config.stream_tokens ()
    in
    let applied = Machine.fault_count m > before in
    (match mid with
    | Some idx when applied ->
      shadow := idx :: !shadow;
      incr faults_applied;
      mark_kind Link_cut
    | _ -> ());
    let mid_fault = Option.map (Fault_model.element model) mid in
    record op
      (Stream
         {
           tokens = config.stream_tokens;
           mid_fault;
           applied;
           lost = o.Des.stream_lost;
         });
    (match check_stream ~stages:stream_stages ~tokens:config.stream_tokens o with
    | Ok () -> ()
    | Error d -> fail op "stream" d);
    check op;
    if o.Des.stream_lost then recover op
  in
  let crash op =
    incr crashes;
    Machine.restart !machine;
    record op Crash_restart;
    check op
  in
  (* Mid-storm cache pressure: evict plans down to an rng-chosen
     occupancy (possibly zero) through the eviction path — the splice
     probe then runs against a partially evicted table, and the
     coherence/coverage checks after this and every later event must
     still hold (PR 9's sharded-cache eviction seam). *)
  let cache_evict op =
    incr cache_evicts;
    let eng = Machine.engine !machine in
    let before = Engine.cache_total eng in
    let keep = Stream.Prng.int rng (before + 1) in
    Engine.cache_trim eng ~keep;
    let after = Engine.cache_total eng in
    record op (Cache_evict { before; after });
    check op
  in
  (* L2 plan-store churn (PR 10): the serving tier may gain, lose or
     mmap a silently corrupted precompiled store at any moment.  The
     store is compiled lazily — flat, over the machine's mixed model,
     with the engine's own budget, so stored plans are byte-identical
     to scratch solves — and the coherence/coverage checks after this
     and every later event prove corruption fails closed into the solve
     path rather than surfacing a wrong plan. *)
  let store_files = ref [] in
  let pristine_store = ref None in
  let corrupt_store = ref None in
  let temp_store_file suffix =
    let p = Filename.temp_file "gdpn-chaos" suffix in
    store_files := p :: !store_files;
    p
  in
  let ensure_store () =
    match !pristine_store with
    | Some p -> p
    | None ->
      let p = temp_store_file ".store" in
      ignore
        (Engine.compile_plans ~budget:(Engine.budget engine) ~domains:1
           ~flat:true ~max_size:(min 2 (Fault_model.max_faults model)) model
           ~path:p);
      pristine_store := Some p;
      p
  in
  let store_degrade op =
    incr store_degrades;
    let eng = Machine.engine !machine in
    let pristine = ensure_store () in
    let mode =
      match Stream.Prng.int rng 3 with
      | 0 -> Store_attach
      | 1 -> Store_detach
      | _ -> Store_corrupt
    in
    (match mode with
    | Store_attach -> (
      match Engine.attach_store eng ~path:pristine with
      | Ok () -> ()
      | Error e -> fail op "store" ("pristine store rejected: " ^ e))
    | Store_detach -> Engine.detach_store eng
    | Store_corrupt ->
      (* Flip one dice-chosen byte of a copy and serve that: the mmap
         either refuses to open or every damaged probe reads as a miss. *)
      let ic = open_in_bin pristine in
      let bytes =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))
      in
      let pos = Stream.Prng.int rng (Bytes.length bytes) in
      Bytes.set bytes pos
        (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x5a));
      let cpath =
        match !corrupt_store with
        | Some p -> p
        | None ->
          let p = temp_store_file ".badstore" in
          corrupt_store := Some p;
          p
      in
      let oc = open_out_bin cpath in
      output_bytes oc bytes;
      close_out oc;
      Engine.detach_store eng;
      (match Engine.attach_store eng ~path:cpath with
      | Ok () | Error _ -> ()));
    let attached = Engine.plan_store eng <> None in
    record op (Store_degrade { mode; attached });
    check op
  in
  let repair op =
    match List.rev !shadow with
    | [] -> ()
    | oldest :: rest ->
      incr repairs;
      (* The machine is rebuilt without the repaired element; the
         remaining faults re-inject in their original order (through the
         shared engine, so the plan cache stays warm). *)
      machine := Machine.create ~engine ~model inst;
      let lost = ref false in
      let kept = ref [] in
      List.iter
        (fun idx ->
          match Machine.inject !machine idx with
          | Machine.Unchanged -> ()
          | Machine.Remapped _ -> kept := idx :: !kept
          | Machine.Lost ->
            kept := idx :: !kept;
            lost := true)
        rest;
      shadow := !kept;
      record op
        (Repair
           {
             removed = [ Fault_model.element model oldest ];
             full = false;
             lost = !lost;
           });
      check op;
      if !lost then recover op
  in
  let total_ops = config.years * 365 * config.ops_per_day in
  let op = ref 0 in
  let violation = ref None in
  (try
     while !op < total_ops do
       let o = !op in
       (match perturb with
       | None -> ()
       | Some f ->
         f o !machine;
         check o);
       (* Roll every gate up front in a fixed order so the rng stream
          shape is easy to reason about. *)
       let g_node = hit rates.node_death_ppm in
       let g_link = hit rates.link_cut_ppm in
       let g_col = hit rates.colored_burst_ppm in
       let g_nbr = hit rates.neighbor_kill_ppm in
       let g_burst = hit rates.multi_burst_ppm in
       let g_crash = hit rates.crash_restart_ppm in
       let g_evict = hit rates.cache_evict_ppm in
       let g_store = hit rates.store_degrade_ppm in
       let g_repair = hit rates.repair_ppm in
       if g_node then inject_burst o Node_death [ Stream.Prng.int rng order ];
       if g_link then stream o ~mid:(Some (order + Stream.Prng.int rng n_links));
       if g_col then begin
         (* Colour class c: every link incident to node c dies at once
            (Wang–Desmedt colored-edge homogeneous faults; the NIC/port
            failure).  Node c itself stays healthy. *)
         let c = Stream.Prng.int rng order in
         let idxs =
           List.rev
             (Graph.fold_neighbours graph c
                (fun acc w -> elt_index (Fault_model.Link (c, w)) :: acc)
                [])
         in
         inject_burst o Colored_burst idxs
       end;
       if g_nbr then begin
         (* Closed neighborhood N[v]: Dvořák–Gu neighbor connectivity —
            a localised event takes out a node and everything around
            it. *)
         let v = Stream.Prng.int rng order in
         let idxs = v :: Array.to_list (Graph.neighbours graph v) in
         inject_burst o Neighbor_kill idxs
       end;
       if g_burst then begin
         let m = 2 + Stream.Prng.int rng (max 1 inst.Instance.k) in
         let rec draw_distinct acc m =
           if m = 0 then List.rev acc
           else
             let v = random_elt () in
             if List.mem v acc then draw_distinct acc m
             else draw_distinct (v :: acc) (m - 1)
         in
         inject_burst o Multi_burst (draw_distinct [] m)
       end;
       if g_crash then crash o;
       if g_evict then cache_evict o;
       if g_store then store_degrade o;
       if g_repair then repair o;
       if config.stream_every > 0 && o mod config.stream_every = 0 then
         stream o ~mid:None;
       incr op
     done
   with Violation_found v ->
     Metrics.incr m_violations;
     violation := Some v);
  Engine.detach_store engine;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !store_files;
  {
    profile;
    seed;
    ops = !op;
    events = List.rev !trace;
    faults_applied = !faults_applied;
    kinds_covered = List.filter (fun k -> covered.(kind_code k)) all_kinds;
    repairs = !repairs;
    crashes = !crashes;
    cache_evicts = !cache_evicts;
    store_degrades = !store_degrades;
    streams = !streams;
    losses = !losses;
    digest = !digest;
    violation = !violation;
  }
