open Gdpn_core
module Bitset = Gdpn_graph.Bitset
module Engine = Gdpn_engine.Engine
module Metrics = Gdpn_obs.Metrics

(* Observability instruments (process-wide, see Gdpn_obs.Metrics). *)
let m_injections = Metrics.counter "machine.injections"
let m_local = Metrics.counter "machine.local_repairs"
let m_full = Metrics.counter "machine.full_remaps"
let m_lost = Metrics.counter "machine.streams_lost"

type t = {
  engine : Engine.t;
  model : Fault_model.t;  (* fault_mask/fault_list hold universe indices *)
  fault_mask : Bitset.t;
  local_repair : bool;
  mutable fault_list : int list;
  mutable current : Pipeline.t option;
  mutable remaps : int;
  mutable local_repairs : int;
}

type inject_result = Remapped of Pipeline.t | Unchanged | Lost

(* Solve the current mask through the engine.  With [local_repair] the
   cached path applies: a plan for the predecessor mask is in the cache
   from the previous remap, so most single faults are absorbed by a splice
   instead of a search, and revisited masks are answered from the plan
   cache outright.  Without it every call runs the full solver (the
   E14 ablation baseline). *)
let resolve t =
  let before = (Engine.stats t.engine).Engine.full_solves in
  let outcome =
    Engine.solve_model ~cache:t.local_repair t.engine t.model
      ~faults:t.fault_mask
  in
  let solved_fully = (Engine.stats t.engine).Engine.full_solves > before in
  match outcome with
  | Reconfig.Pipeline p ->
    t.current <- Some p;
    (Some p, not solved_fully)
  | Reconfig.No_pipeline | Reconfig.Gave_up ->
    t.current <- None;
    (None, not solved_fully)

let create ?engine ?(local_repair = true) ?model inst =
  let engine =
    match engine with
    | Some e ->
      if Engine.instance e != inst then
        invalid_arg "Machine.create: engine built for a different instance";
      e
    | None -> Engine.create inst
  in
  let model =
    match model with
    | Some m when Fault_model.instance m != inst ->
      invalid_arg "Machine.create: model built over a different instance"
    | Some m -> m
    | None -> Fault_model.node inst
  in
  let t =
    {
      engine;
      model;
      fault_mask = Bitset.create (Fault_model.size model);
      local_repair;
      fault_list = [];
      current = None;
      remaps = 0;
      local_repairs = 0;
    }
  in
  ignore (resolve t);
  t

let instance t = Engine.instance t.engine
let engine t = t.engine
let model t = t.model
let fault_count t = List.length t.fault_list
let faults t = List.rev t.fault_list
let remap_count t = t.remaps
let pipeline t = t.current

let healthy_processor_count t =
  (* Under a generalized model only the node component of the fault set
     kills processors; link/class faults degrade connectivity instead. *)
  let node_mask = fst (Fault_model.decompose t.model t.fault_mask) in
  List.length
    (List.filter
       (fun p -> not (Bitset.mem node_mask p))
       (Instance.processors (instance t)))

let used_processor_count t =
  match t.current with None -> 0 | Some p -> Pipeline.processor_count p

let utilization t =
  let healthy = healthy_processor_count t in
  if healthy = 0 then 0.0
  else float_of_int (used_processor_count t) /. float_of_int healthy

let local_repair_count t = t.local_repairs

let plan_cache_hits t = (Engine.stats t.engine).Engine.cache_hits

(* Engine crash/restart: the engine loses its plan caches, then the
   machine re-solves its current mask through the cold engine (the
   plan-cache rebuild).  Not a fault: the fault list, remap and repair
   counters are untouched.  The re-embedded pipeline may legitimately
   differ from the pre-crash one (cache iteration order is gone), but it
   must exist whenever a pipeline existed before — the chaos harness
   checks exactly that. *)
let restart t =
  Engine.crash_restart t.engine;
  ignore (resolve t)

let inject t node =
  if node < 0 || node >= Fault_model.size t.model then
    invalid_arg "Machine.inject: node out of range";
  if Bitset.mem t.fault_mask node then Unchanged
  else begin
    Bitset.add t.fault_mask node;
    t.fault_list <- node :: t.fault_list;
    t.remaps <- t.remaps + 1;
    Metrics.incr m_injections;
    match resolve t with
    | Some p, local ->
      if local then t.local_repairs <- t.local_repairs + 1;
      Metrics.incr (if local then m_local else m_full);
      Remapped p
    | None, _ ->
      Metrics.incr m_lost;
      Lost
  end
