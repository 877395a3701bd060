(* The gdpd daemon core: a fleet of preloaded engines, K worker domains
   serving connections from a bounded queue, one shared sharded plan
   cache per instance (Engine.reader gives each worker a domain-private
   handle over it).

   Concurrency model, from the Mp coordinator's playbook plus domains:

   - the calling domain runs the accept loop, multiplexing the listen
     socket against a self-pipe with [Unix.select] so a shutdown request
     can wake it;
   - accepted connections land in a bounded queue (condition variables
     both ways): a full queue blocks the acceptor, which stops accepting
     — backpressure degrades to the listen backlog and then to client
     connect timeouts instead of unbounded daemon memory;
   - each worker domain owns [Engine.reader]-derived handles (private
     ctx/scratch, shared caches) and serves one connection at a time to
     completion, processing its frames strictly in order — responses for
     one connection are therefore deterministic, which is what the
     serve-smoke crosscheck pins against direct Engine.solve;
   - within a connection the loop is read-one-frame / write-one-frame:
     client-side pipelining is bounded by the socket buffers, the
     protocol's only flow control (and all it needs — a batch frame
     amortises the round trip). *)

module Metrics = Gdpn_obs.Metrics
module Codec = Gdpn_engine.Codec
module Engine = Gdpn_engine.Engine
open Gdpn_core

let m_connections = Metrics.counter "server.connections"
let m_requests = Metrics.counter "server.requests"
let m_batches = Metrics.counter "server.batches"
let m_errors = Metrics.counter "server.errors"
let g_queue_depth = Metrics.gauge "server.queue_depth"

(* Batch sizes are counts, not latencies: power-of-two count ladder. *)
let h_batch_size =
  Metrics.histogram
    ~bounds:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 65536 |]
    "server.batch_size"

let h_request = Metrics.histogram "server.request_ns"

type listen = Unix_sock of string | Tcp of int

type config = {
  instances : (int * int) list;  (** fleet: (n, k) per slot, in id order *)
  listen : listen;
  workers : int;
  max_queue : int;
  warm : int;  (** pre-solve every fault set of size <= this *)
  budget : int option;
  cache_limit : int option;
  allow_shutdown : bool;
  store : string list;
      (** precompiled plan stores; each is mmap'd and attached to the
          fleet engine whose instance digest it was compiled for (at
          most one store per engine — the last matching path wins) *)
}

let default_config =
  {
    instances = [];
    listen = Unix_sock "gdpd.sock";
    workers = 2;
    max_queue = 64;
    warm = 0;
    budget = None;
    cache_limit = None;
    allow_shutdown = true;
    store = [];
  }

let build_fleet cfg =
  if cfg.instances = [] then invalid_arg "Server.run: empty fleet";
  let engines =
    cfg.instances
    |> List.map (fun (n, k) ->
           Engine.create ?budget:cfg.budget ?cache_limit:cfg.cache_limit
             (Family.build ~n ~k))
    |> Array.of_list
  in
  (* Cold-start tier: each store binds to the engine it was compiled
     for (digest match); a store no fleet member accepts is a startup
     error — silently serving without it would hide a misdeployment. *)
  List.iter
    (fun path ->
      let rec attach i last_err =
        if i >= Array.length engines then
          invalid_arg
            (Printf.sprintf "Server.run: plan store %s matches no fleet \
                             engine (%s)"
               path last_err)
        else
          match Engine.attach_store engines.(i) ~path with
          | Ok () -> ()
          | Error e -> attach (i + 1) e
      in
      attach 0 "empty fleet")
    cfg.store;
  engines

(* Pre-solve every fault set of size <= warm so a fresh daemon serves
   its first burst from a hot cache.  Enumeration order matches the
   verifier's size-major order, so each set splices from its cached
   predecessor. *)
let warm_engine engine ~warm =
  let order = Instance.order (Engine.instance engine) in
  let k = (Engine.instance engine).Instance.k in
  let depth = min warm k in
  let mask = Gdpn_graph.Bitset.create order in
  if depth >= 0 then ignore (Engine.solve engine ~faults:mask);
  let rec go size first =
    if size > 0 then
      for v = first to order - 1 do
        Gdpn_graph.Bitset.add mask v;
        ignore (Engine.solve engine ~faults:mask);
        go (size - 1) (v + 1);
        Gdpn_graph.Bitset.remove mask v
      done
  in
  for size = 1 to depth do
    go size 0
  done

let info_of_engine engine =
  let inst = Engine.instance engine in
  {
    Protocol.i_n = inst.Instance.n;
    i_k = inst.Instance.k;
    i_order = Instance.order inst;
  }

(* -------------------- per-connection service -------------------- *)

type shared_state = {
  engines : Engine.t array;  (* the fleet; workers derive readers *)
  stop : bool Atomic.t;
  wake_w : Unix.file_descr;  (* self-pipe: wakes the accept loop *)
  queue : Unix.file_descr Queue.t;
  qlock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  max_queue : int;
  allow_shutdown : bool;
  max_frame : int;  (* the longest request payload the fleet can need *)
}

let request_stop st =
  if not (Atomic.exchange st.stop true) then begin
    (try ignore (Unix.write st.wake_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    Mutex.lock st.qlock;
    Condition.broadcast st.not_empty;
    Condition.broadcast st.not_full;
    Mutex.unlock st.qlock
  end

let err code message = Protocol.Error { code; message }

(* Build the fault mask for one request into [scratch], solve, encode.
   The scratch mask is reused across the whole connection — the engine
   copies keys on insert, so this allocates nothing per cached hit
   beyond the decoded request itself. *)
let solve_one reader scratch order faults =
  let ok = ref true in
  Gdpn_graph.Bitset.clear scratch;
  List.iter
    (fun e -> if e < 0 || e >= order then ok := false else Gdpn_graph.Bitset.add scratch e)
    faults;
  if not !ok then None
  else Some (Protocol.outcome_of_reconfig (Engine.solve reader ~faults:scratch))

let handle_request st readers scratches req =
  let lookup inst =
    if inst < 0 || inst >= Array.length readers then None
    else Some (readers.(inst), scratches.(inst))
  in
  match req with
  | Protocol.Hello ->
    Protocol.Welcome
      {
        version = Protocol.version;
        instances = Array.to_list (Array.map info_of_engine readers);
      }
  | Protocol.Metrics_dump ->
    Protocol.Json (Metrics.snapshot_to_json (Metrics.snapshot ()))
  | Protocol.Shutdown ->
    if st.allow_shutdown then begin
      request_stop st;
      Protocol.Ack
    end
    else err Protocol.err_shutdown_disabled "shutdown disabled"
  | Protocol.Solve { inst; faults } -> (
    Metrics.incr m_requests;
    match lookup inst with
    | None -> err Protocol.err_unknown_instance (Printf.sprintf "instance %d" inst)
    | Some (reader, scratch) -> (
      let order = Instance.order (Engine.instance reader) in
      match solve_one reader scratch order faults with
      | Some o -> Protocol.Outcome o
      | None -> err Protocol.err_bad_element "fault element out of range"))
  | Protocol.Batch { inst; masks } -> (
    match lookup inst with
    | None -> err Protocol.err_unknown_instance (Printf.sprintf "instance %d" inst)
    | Some (reader, scratch) -> (
      Metrics.incr m_batches;
      let count = List.length masks in
      Metrics.add m_requests count;
      Metrics.observe h_batch_size count;
      let order = Instance.order (Engine.instance reader) in
      let exception Bad_elt in
      try
        Protocol.Outcomes
          (List.map
             (fun faults ->
               match solve_one reader scratch order faults with
               | Some o -> o
               | None -> raise Bad_elt)
             masks)
      with Bad_elt -> err Protocol.err_bad_element "fault element out of range"))

exception Slow_path

(* Streaming fast path for Batch frames — the throughput-critical shape.
   Masks decode straight into the scratch bitset and every outcome is
   encoded as soon as it is solved, so the request never materializes as
   [int list list] and the response never as [outcome list].  The bytes
   produced are identical to [encode_response (Outcomes ...)].  Any
   anomaly (bad instance, out-of-range element, malformed varints)
   raises and the caller re-runs the generic path, which owns the error
   vocabulary — re-solving the prefix is free, the cache is warm. *)
let serve_batch_fast readers scratches payload =
  let inst, pos = Codec.get_uint payload 1 in
  if inst < 0 || inst >= Array.length readers then raise Slow_path;
  let reader = readers.(inst) and scratch = scratches.(inst) in
  let order = Instance.order (Engine.instance reader) in
  let count, pos = Codec.get_uint payload pos in
  if count > Protocol.max_batch then raise Slow_path;
  let buf = Buffer.create ((count * 8) + 16) in
  Buffer.add_char buf 'B';
  Codec.put_uint buf count;
  let pos = ref pos in
  for _ = 1 to count do
    let n, p = Codec.get_uint payload !pos in
    pos := p;
    if n > Protocol.max_batch then raise Slow_path;
    Gdpn_graph.Bitset.clear scratch;
    for _ = 1 to n do
      let e, p = Codec.get_uint payload !pos in
      pos := p;
      if e < 0 || e >= order then raise Slow_path;
      Gdpn_graph.Bitset.add scratch e
    done;
    match Engine.solve reader ~faults:scratch with
    | Gdpn_core.Reconfig.Pipeline pl ->
      let nodes = pl.Pipeline.nodes in
      Buffer.add_char buf '\000';
      Codec.put_uint buf (List.length nodes);
      List.iter (Codec.put_uint buf) nodes
    | Gdpn_core.Reconfig.No_pipeline -> Buffer.add_char buf '\001'
    | Gdpn_core.Reconfig.Gave_up -> Buffer.add_char buf '\002'
  done;
  if !pos <> String.length payload then raise Slow_path;
  Metrics.incr m_batches;
  Metrics.add m_requests count;
  Metrics.observe h_batch_size count;
  Buffer.contents buf

let serve_connection st readers scratches fd =
  Metrics.incr m_connections;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let respond r = Codec.output_frame oc (Protocol.encode_response r) in
  (try
     let continue = ref true in
     while !continue do
       match Codec.input_frame ~max_len:st.max_frame ic with
       | None -> continue := false
       | Some payload ->
         let start = Gdpn_obs.Mclock.now_ns () in
         let fast =
           if String.length payload > 0 && payload.[0] = 'B' then
             match serve_batch_fast readers scratches payload with
             | raw -> Some raw
             | exception (Slow_path | Codec.Corrupt _ | Invalid_argument _)
               ->
               None
           else None
         in
         (match fast with
         | Some raw -> Codec.output_frame oc raw
         | None ->
           let resp =
             match Protocol.decode_request payload with
             | req -> handle_request st readers scratches req
             | exception Protocol.Bad_message m ->
               Metrics.incr m_errors;
               err Protocol.err_bad_request m
           in
           respond resp;
           (match resp with
           | Protocol.Ack -> continue := false  (* shutdown acknowledged *)
           | _ -> ()));
         Metrics.observe h_request (Gdpn_obs.Mclock.now_ns () - start)
     done
   with
  | End_of_file | Sys_error _ | Unix.Unix_error _ -> ()
  | Codec.Corrupt _ -> Metrics.incr m_errors);
  (* close_out closes the underlying fd (shared with ic); flush errors
     on a dead peer are not ours to report. *)
  try close_out oc with Sys_error _ | Unix.Unix_error _ -> ()

(* -------------------- worker domains -------------------- *)

let worker_loop st () =
  (* Domain-private handles over the shared caches: this is the seam the
     sharded cache exists for. *)
  let readers = Array.map Engine.reader st.engines in
  let scratches =
    Array.map
      (fun e -> Gdpn_graph.Bitset.create (Instance.order (Engine.instance e)))
      readers
  in
  let next () =
    Mutex.lock st.qlock;
    let rec wait () =
      if Queue.is_empty st.queue && not (Atomic.get st.stop) then begin
        Condition.wait st.not_empty st.qlock;
        wait ()
      end
    in
    wait ();
    if Queue.is_empty st.queue then begin
      Mutex.unlock st.qlock;
      None  (* stop requested and nothing left to drain *)
    end
    else begin
      let fd = Queue.pop st.queue in
      Metrics.set g_queue_depth (Queue.length st.queue);
      Condition.signal st.not_full;
      Mutex.unlock st.qlock;
      Some fd
    end
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some fd ->
      serve_connection st readers scratches fd;
      loop ()
  in
  loop ()

(* -------------------- listener -------------------- *)

let bind_listen = function
  | Unix_sock path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 128;
    fd
  | Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 128;
    fd

let run ?(ready = fun () -> ()) cfg =
  (* A peer that hangs up before reading its answer must end only its own
     connection: the write then fails with EPIPE, which serve_connection
     handles, instead of raising SIGPIPE, which kills the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let engines = build_fleet cfg in
  if cfg.warm > 0 then Array.iter (warm_engine ~warm:cfg.warm) engines;
  let listen_fd = bind_listen cfg.listen in
  let wake_r, wake_w = Unix.pipe () in
  let st =
    {
      engines;
      stop = Atomic.make false;
      wake_w;
      queue = Queue.create ();
      qlock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      max_queue = max 1 cfg.max_queue;
      allow_shutdown = cfg.allow_shutdown;
      max_frame =
        Protocol.max_request_len
          ~order:
            (Array.fold_left
               (fun m e -> max m (Instance.order (Engine.instance e)))
               0 engines);
    }
  in
  let workers =
    Array.init (max 1 cfg.workers) (fun _ -> Domain.spawn (worker_loop st))
  in
  ready ();
  (try
     while not (Atomic.get st.stop) do
       let readable, _, _ = Unix.select [ listen_fd; wake_r ] [] [] (-1.0) in
       if List.mem wake_r readable then ()  (* stop flag checked above *)
       else if List.mem listen_fd readable then begin
         let fd, _ = Unix.accept listen_fd in
         Mutex.lock st.qlock;
         while Queue.length st.queue >= st.max_queue && not (Atomic.get st.stop) do
           Condition.wait st.not_full st.qlock
         done;
         if Atomic.get st.stop then begin
           Mutex.unlock st.qlock;
           try Unix.close fd with Unix.Unix_error _ -> ()
         end
         else begin
           Queue.push fd st.queue;
           Metrics.set g_queue_depth (Queue.length st.queue);
           Condition.signal st.not_empty;
           Mutex.unlock st.qlock
         end
       end
     done
   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  request_stop st;
  Array.iter Domain.join workers;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  match cfg.listen with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
