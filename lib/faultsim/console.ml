open Gdpn_core

type t = { machine : Machine.t; inst : Instance.t; rng : Stream.Prng.t }

let create ?(seed = 42) inst =
  { machine = Machine.create inst; inst; rng = Stream.Prng.create seed }
let machine t = t.machine

let help_text =
  "commands: status | fault N | pipeline | faults | processors | draw | \
   verify N | help | quit"

let status t =
  let m = t.machine in
  Format.asprintf "%a@.faults: %d, remaps: %d (%d local), %s" Instance.pp
    t.inst (Machine.fault_count m) (Machine.remap_count m)
    (Machine.local_repair_count m)
    (match Machine.pipeline m with
    | Some p ->
      Printf.sprintf "pipeline up with %d processors"
        (Pipeline.processor_count p)
    | None -> "PIPELINE LOST")

let pipeline t =
  match Machine.pipeline t.machine with
  | Some p -> Render.embedding t.inst p
  | None -> "no pipeline"

let draw t =
  match t.inst.Instance.strategy with
  | Instance.Circulant_layout _ ->
    Render.ring ~faults:(Machine.faults t.machine)
      ?pipeline:(Machine.pipeline t.machine) t.inst
  | _ -> Render.adjacency t.inst

let eval t line =
  let words =
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
  in
  match words with
  | [] -> `Reply ""
  | [ "quit" ] | [ "exit" ] -> `Quit
  | [ "help" ] -> `Reply help_text
  | [ "status" ] -> `Reply (status t)
  | [ "pipeline" ] -> `Reply (pipeline t)
  | [ "draw" ] -> `Reply (draw t)
  | [ "faults" ] ->
    `Reply
      (match Machine.faults t.machine with
      | [] -> "none"
      | fs -> String.concat " " (List.map string_of_int fs))
  | [ "processors" ] ->
    `Reply
      (Printf.sprintf "healthy %d, in use %d, utilization %.3f"
         (Machine.healthy_processor_count t.machine)
         (Machine.used_processor_count t.machine)
         (Machine.utilization t.machine))
  | [ "fault"; n ] -> (
    match int_of_string_opt n with
    | None -> `Reply (Printf.sprintf "not a node id: %s" n)
    | Some node ->
      if node < 0 || node >= Instance.order t.inst then
        `Reply (Printf.sprintf "node %d out of range" node)
      else (
        match Machine.inject t.machine node with
        | Machine.Remapped p ->
          `Reply
            (Printf.sprintf "remapped: %d processors in service"
               (Pipeline.processor_count p))
        | Machine.Unchanged -> `Reply "node already faulty"
        | Machine.Lost -> `Reply "STREAM LOST: no pipeline survives"))
  | [ "verify"; n ] -> (
    match int_of_string_opt n with
    | None | Some 0 -> `Reply (Printf.sprintf "not a trial count: %s" n)
    | Some trials ->
      (* The trial seed derives from the console's own Prng chain, so a
         whole interactive session replays from one seed; routing through
         the engine keeps stdlib Random out of lib/faultsim entirely. *)
      let seed = Stream.Prng.int t.rng max_int in
      let engine = Machine.engine t.machine in
      let report =
        Gdpn_engine.Engine.Parallel.verify_sampled ~seed ~trials ~domains:1
          ~budget:(Gdpn_engine.Engine.budget engine)
          (Gdpn_engine.Engine.instance engine)
      in
      `Reply (Format.asprintf "%a" Verify.pp_report report))
  | cmd :: _ -> `Reply (Printf.sprintf "unknown command %S; %s" cmd help_text)
