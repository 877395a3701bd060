(* gdpd lifecycle: the benchmark starts every daemon itself, times it
   from spawn to its ready line, and kills and reaps it on every exit
   path — normal return, exception, SIGINT/SIGTERM/SIGHUP (handlers
   below) and, through PR_SET_PDEATHSIG in the spawn stub, SIGKILL of
   the benchmark itself.  A leaked daemon would load the next run's
   host. *)

external spawn : string -> string array -> Unix.file_descr -> int
  = "perfbench_spawn"

type t = {
  pid : int;
  socket : string;
  out : Unix.file_descr;  (* read end of the daemon's stdout *)
  mutable alive : bool;
}

let live : t list ref = ref []

let stop t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let rec reap () =
      match Unix.waitpid [] t.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error _ -> ()
    in
    reap ();
    (try Unix.close t.out with Unix.Unix_error _ -> ());
    (try Unix.unlink t.socket with Unix.Unix_error _ -> ());
    live := List.filter (fun d -> d != t) !live
  end

let stop_all () = List.iter stop !live

let () =
  at_exit stop_all;
  (* A write to a daemon that died must surface as EPIPE, not kill the
     benchmark before it can reap. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             stop_all ();
             exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ]

let ready_prefix = "gdpd: serving"

(* Read the daemon's stdout until its ready line.  No connect-retry
   loop: gdpd prints the line only once its socket listens, so the
   measured set-up time carries no polling granularity. *)
let wait_ready t ~timeout_s =
  let deadline = Host.now_ns () + int_of_float (timeout_s *. 1e9) in
  let buf = Buffer.create 128 and chunk = Bytes.create 256 in
  let rec loop () =
    let contents = Buffer.contents buf in
    let ready =
      List.exists
        (fun l ->
          String.length l >= String.length ready_prefix
          && String.sub l 0 (String.length ready_prefix) = ready_prefix)
        (String.split_on_char '\n' contents)
      && String.contains contents '\n'
    in
    if not ready then begin
      let left = Host.s_of_ns (deadline - Host.now_ns ()) in
      if left <= 0. then failwith "gdpd: no ready line before the timeout";
      match Unix.select [ t.out ] [] [] left with
      | [], _, _ -> loop ()
      | _ ->
        let n = Unix.read t.out chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith ("gdpd exited before ready: " ^ contents);
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ()

(* Spawn [gdpd --socket socket args...] and wait for it to listen;
   returns the daemon and its spawn-to-ready time in seconds. *)
let start ~gdpd ~socket args =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Host.now_ns () in
  let pid =
    match spawn gdpd (Array.of_list (gdpd :: "--socket" :: socket :: args)) w with
    | pid -> pid
    | exception e ->
      Unix.close r;
      Unix.close w;
      raise e
  in
  Unix.close w;
  let t = { pid; socket; out = r; alive = true } in
  live := t :: !live;
  wait_ready t ~timeout_s:120.;
  (t, Host.s_of_ns (Host.now_ns () - t0))

let peak_rss_mb t = Host.peak_rss_mb (string_of_int t.pid)
