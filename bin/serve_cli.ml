(* Shared command-line front end for the plan-serving daemon: the
   standalone [gdpd] binary and [gdp serve] parse the same options and
   run the same Gdpn_server.Server; [gdp bench-client] is the matching
   load generator and crosschecker (exit 3 on divergence, the repo's
   crosscheck convention). *)

open Cmdliner
module Server = Gdpn_server.Server
module Client = Gdpn_server.Client
module Protocol = Gdpn_server.Protocol
module Engine = Gdpn_engine.Engine
module Mclock = Gdpn_obs.Mclock
module Prng = Gdpn_faultsim.Stream.Prng
open Gdpn_core

let pf = Format.printf
let epf = Format.eprintf

(* -------------------- shared options -------------------- *)

let parse_fleet spec =
  let slot s =
    match String.split_on_char ':' (String.trim s) with
    | [ n; k ] -> (int_of_string (String.trim n), int_of_string (String.trim k))
    | _ -> failwith "slot"
  in
  match String.split_on_char ',' spec |> List.map slot with
  | [] -> Error (`Msg "empty fleet")
  | slots -> Ok slots
  | exception _ ->
    Error (`Msg (Printf.sprintf "bad fleet spec %S (expected N:K[,N:K...])" spec))

let fleet_arg =
  Arg.(value & opt string "9:2"
       & info [ "instances" ] ~docv:"FLEET"
           ~doc:"Comma-separated $(b,N:K) fleet slots, preloaded and served \
                 as instance ids 0, 1, ... in order.")

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port on loopback (ignored when $(b,--socket) is given).")

let listen_of socket port =
  match (socket, port) with
  | Some path, _ -> Ok (Server.Unix_sock path)
  | None, Some port -> Ok (Server.Tcp port)
  | None, None -> Error "one of --socket or --port is required"

let pp_listen = function
  | Server.Unix_sock path -> path
  | Server.Tcp port -> Printf.sprintf "localhost:%d" port

(* -------------------- serve -------------------- *)

let serve_run fleet socket port workers queue warm budget cache_limit
    no_shutdown store =
  match (parse_fleet fleet, listen_of socket port) with
  | Error (`Msg e), _ | _, Error e ->
    epf "gdpd: %s@." e;
    2
  | Ok instances, Ok listen -> (
    let cfg =
      {
        Server.instances;
        listen;
        workers;
        max_queue = queue;
        warm;
        budget;
        cache_limit;
        allow_shutdown = not no_shutdown;
        store;
      }
    in
    match
      Server.run cfg ~ready:(fun () ->
          pf "gdpd: serving %d instance(s) on %s with %d worker domain(s)%s@."
            (List.length instances) (pp_listen listen) workers
            (match store with
            | [] -> ""
            | l -> Printf.sprintf " (%d plan store(s) mmap'd)" (List.length l)))
    with
    | () ->
      pf "gdpd: shut down cleanly@.";
      0
    | exception (Invalid_argument e | Family.Unsupported e) ->
      (* Bad configuration, an unbuildable fleet slot included. *)
      epf "gdpd: error: %s@." e;
      2)

let serve_term =
  let workers_arg =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"W" ~doc:"Worker domains serving requests.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"Q"
             ~doc:"Accepted-connection queue bound (backpressure).")
  in
  let warm_arg =
    Arg.(value & opt int 0
         & info [ "warm" ] ~docv:"S"
             ~doc:"Pre-solve every fault set of size up to $(docv) per \
                   instance before serving.")
  in
  let budget_arg =
    Arg.(value & opt (some int) None
         & info [ "budget" ] ~docv:"B" ~doc:"Solver expansion budget per solve.")
  in
  let cache_limit_arg =
    Arg.(value & opt (some int) None
         & info [ "cache-limit" ] ~docv:"N"
             ~doc:"Plan-cache bound per instance (oldest-first eviction).")
  in
  let no_shutdown_arg =
    Arg.(value & flag
         & info [ "no-shutdown" ]
             ~doc:"Refuse the protocol's shutdown request (kill the process \
                   to stop).")
  in
  let store_arg =
    Arg.(value & opt_all string []
         & info [ "store" ] ~docv:"FILE"
             ~doc:"Mmap the precompiled plan store at $(docv) (repeatable) \
                   and attach it to the fleet engine it was compiled for — \
                   the L2 tier under the RAM cache, so a cold daemon serves \
                   its first lap at store speed instead of re-solving.")
  in
  Term.(const serve_run $ fleet_arg $ socket_arg $ port_arg $ workers_arg
        $ queue_arg $ warm_arg $ budget_arg $ cache_limit_arg $ no_shutdown_arg
        $ store_arg)

let serve_doc = "Serve reconfiguration plans over the gdpd binary protocol."

(* -------------------- bench-client -------------------- *)

(* Deterministic request pool: [count] fault masks of size 0..max_faults
   drawn from one seeded Prng — the crosscheck replays the identical
   pool through a local engine, and two bench-client runs with one seed
   load the server identically. *)
let make_pool ~seed ~count ~order ~max_faults =
  let rng = Prng.create seed in
  let draw_mask () =
    let size = Prng.int rng (max_faults + 1) in
    let rec draw acc n =
      if n = 0 then List.rev acc
      else
        let v = Prng.int rng order in
        if List.mem v acc then draw acc n else draw (v :: acc) (n - 1)
    in
    draw [] (min size order)
  in
  Array.init count (fun _ -> draw_mask ())

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1 |> max 0))

type lap_stats = {
  ls_lap : int;
  ls_requests : int;
  ls_wall_ns : int;
  ls_frames : int;
  ls_p50_ns : int;
  ls_p99_ns : int;
}

let reqs_per_s ls =
  if ls.ls_wall_ns = 0 then 0.
  else float ls.ls_requests *. 1e9 /. float ls.ls_wall_ns

let pp_lap batch ls =
  pf "lap %d (%s): %d reqs in %.2f ms -> %.0f req/s; frame p50=%.1fus p99=%.1fus (batch %d)@."
    ls.ls_lap
    (if ls.ls_lap = 1 then "cold" else "cached")
    ls.ls_requests
    (float ls.ls_wall_ns /. 1e6)
    (reqs_per_s ls)
    (float ls.ls_p50_ns /. 1e3)
    (float ls.ls_p99_ns /. 1e3)
    batch

let lap_json batch ls =
  Printf.sprintf
    "{\"lap\": %d, \"cached\": %b, \"requests\": %d, \"batch\": %d, \
     \"wall_ns\": %d, \"reqs_per_s\": %.0f, \"frame_p50_ns\": %d, \
     \"frame_p99_ns\": %d}"
    ls.ls_lap (ls.ls_lap > 1) ls.ls_requests batch ls.ls_wall_ns (reqs_per_s ls)
    ls.ls_p50_ns ls.ls_p99_ns

(* Send the pool through the connection in [batch]-sized frames,
   recording one wall-clock sample per frame.  Returns the responses in
   request order plus the lap's stats. *)
let run_lap client ~inst ~batch ~lap pool =
  let n = Array.length pool in
  let out = ref [] in
  let samples = ref [] in
  let nframes = ref 0 in
  let start = Mclock.now_ns () in
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + batch) in
    let masks = Array.to_list (Array.sub pool !i (hi - !i)) in
    let t0 = Mclock.now_ns () in
    let os =
      if batch = 1 then [ Client.solve client ~inst (List.hd masks) ]
      else Client.solve_batch client ~inst masks
    in
    samples := (Mclock.now_ns () - t0) :: !samples;
    incr nframes;
    out := List.rev_append os !out;
    i := hi
  done;
  let wall = Mclock.now_ns () - start in
  let sorted = Array.of_list !samples in
  Array.sort compare sorted;
  ( List.rev !out,
    {
      ls_lap = lap;
      ls_requests = n;
      ls_wall_ns = wall;
      ls_frames = !nframes;
      ls_p50_ns = percentile sorted 50.;
      ls_p99_ns = percentile sorted 99.;
    } )

let bench_client_run socket port inst requests batch laps max_faults seed check
    store stats json shutdown =
  match listen_of socket port with
  | Error e ->
    epf "gdp bench-client: %s@." e;
    2
  | Ok listen -> (
    match Client.connect ~attempts:40 listen with
    | exception (Unix.Unix_error _ as e) ->
      epf "gdp bench-client: cannot connect to %s (%s)@." (pp_listen listen)
        (Printexc.to_string e);
      2
    | client ->
      let infos = Client.hello client in
      if inst < 0 || inst >= List.length infos then begin
        epf "gdp bench-client: instance %d not in the fleet (%d slots)@." inst
          (List.length infos);
        Client.close client;
        2
      end
      else begin
        let info = List.nth infos inst in
        let order = info.Protocol.i_order in
        let max_faults =
          match max_faults with Some f -> f | None -> info.Protocol.i_k
        in
        let pool = make_pool ~seed ~count:requests ~order ~max_faults in
        (* The local oracle replays the identical sequence through a
           fresh engine with default parameters: responses must be
           byte-identical (same verdicts, same node sequences).  When
           the daemon serves from a plan store, the oracle attaches the
           same store — orbit-transported plans are deterministic but
           not the bytes a storeless solve would pick, so byte-identity
           is against the same L1 -> store -> solve tiering. *)
        let oracle =
          if not check then None
          else
            Some
              (Engine.create
                 (Family.build ~n:info.Protocol.i_n ~k:info.Protocol.i_k))
        in
        let store_err =
          match (oracle, store) with
          | Some engine, Some path -> (
            match Engine.attach_store engine ~path with
            | Ok () -> None
            | Error e -> Some e)
          | _ -> None
        in
        match store_err with
        | Some e ->
          epf "gdp bench-client: cannot attach oracle store: %s@." e;
          Client.close client;
          2
        | None ->
        let divergences = ref 0 in
        let batch = max 1 batch in
        let stats_list = ref [] in
        for lap = 1 to max 1 laps do
          let responses, ls = run_lap client ~inst ~batch ~lap pool in
          (match oracle with
          | None -> ()
          | Some engine ->
            List.iteri
              (fun i got ->
                let faults = pool.(i) in
                let want =
                  Protocol.outcome_of_reconfig
                    (Engine.solve_list engine ~faults)
                in
                if not (Protocol.equal_outcome got want) then begin
                  incr divergences;
                  if !divergences <= 5 then
                    epf "DIVERGENCE lap %d req %d faults=[%s]: server %a, local %a@."
                      lap i
                      (String.concat "," (List.map string_of_int faults))
                      Protocol.pp_outcome got Protocol.pp_outcome want
                end)
              responses);
          if not json then pp_lap batch ls;
          stats_list := ls :: !stats_list
        done;
        if json then
          pf "{\"laps\": [%s], \"divergences\": %d}@."
            (String.concat ", " (List.rev_map (lap_json batch) !stats_list))
            !divergences;
        if stats then begin
          let snap = Client.metrics client in
          pf "%s@." snap
        end;
        if shutdown then Client.shutdown client;
        Client.close client;
        if check && !divergences > 0 then begin
          epf "gdp bench-client: %d divergence(s) from direct Engine.solve@."
            !divergences;
          3
        end
        else 0
      end)

let bench_client_term =
  let inst_arg =
    Arg.(value & opt int 0
         & info [ "inst" ] ~docv:"ID" ~doc:"Fleet instance id to query.")
  in
  let requests_arg =
    Arg.(value & opt int 4096
         & info [ "requests" ] ~docv:"R" ~doc:"Requests per lap.")
  in
  let batch_arg =
    Arg.(value & opt int 256
         & info [ "batch" ] ~docv:"B"
             ~doc:"Requests per protocol frame (1 sends single solves).")
  in
  let laps_arg =
    Arg.(value & opt int 2
         & info [ "laps" ] ~docv:"L"
             ~doc:"Laps over the request pool: lap 1 is cold, later laps are \
                   served from the plan cache.")
  in
  let max_faults_arg =
    Arg.(value & opt (some int) None
         & info [ "max-faults" ] ~docv:"F"
             ~doc:"Largest fault-mask size in the pool (default: the \
                   instance's k).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Pool PRNG seed.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Replay the pool through a local engine and compare every \
                   response; exit 3 on divergence.")
  in
  let store_arg =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"FILE"
             ~doc:"With $(b,--check): attach the plan store at $(docv) to \
                   the local oracle engine, mirroring a daemon started with \
                   $(b,--store) so responses stay byte-comparable.")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Fetch and print the server metrics snapshot.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit lap stats as one JSON object.")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Send a shutdown request before closing.")
  in
  Term.(const bench_client_run $ socket_arg $ port_arg $ inst_arg
        $ requests_arg $ batch_arg $ laps_arg $ max_faults_arg $ seed_arg
        $ check_arg $ store_arg $ stats_arg $ json_arg $ shutdown_arg)

let bench_client_doc =
  "Load-test a gdpd daemon; optionally crosscheck against direct solves."
