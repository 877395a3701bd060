(* Multi-process verification: a coordinator that farms a task's work
   units out to [gdp verify-worker] child processes over pipes.

   Protocol (each message is one Codec.frame; payload first byte tags):

     coordinator -> worker:
       'U' unit_id cutoff'     assign one unit (cutoff' = 0 for "none",
                               else cutoff + 1 — keeps the common
                               no-cutoff case a one-byte varint)
       'Q'                     quit (EOF works too)

     worker -> coordinator:
       'R' unit_result         the assigned unit drained; rank-tagged
                               failures capped at max_failures

   The framing is exactly the checkpoint file's (length prefix +
   Adler-32), so the future gdpd daemon can reuse it verbatim.  The
   coordinator performs the same deterministic rank merge as the
   in-process scheduler, so an N-process report is identical to
   Verify's; with a checkpoint writer attached, worker results are
   appended as they stream in, making multi-process runs resumable with
   the same file format. *)

module Metrics = Gdpn_obs.Metrics
module Verify = Gdpn_core.Verify
module Task = Engine.Parallel.Task

(* Both directions of coordinator/worker traffic, frame overhead
   included. *)
let m_ipc_bytes = Metrics.counter "engine.ipc_bytes"
let m_units_resumed = Metrics.counter "verify.units_resumed"

let tag_assign = 'U'
let tag_quit = 'Q'
let tag_result = 'R'

let encode_assign ~unit_id ~cutoff =
  let buf = Buffer.create 16 in
  Buffer.add_char buf tag_assign;
  Codec.put_uint buf unit_id;
  Codec.put_uint buf (if cutoff = max_int then 0 else cutoff + 1);
  Buffer.contents buf

let encode_result r =
  let buf = Buffer.create 64 in
  Buffer.add_char buf tag_result;
  Codec.put_unit_result buf r;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

(* Entry point behind [gdp verify-worker]: rebuild the task from the
   spec on the command line (the caller's job), then serve assignments
   from stdin until quit/EOF.  stdout carries only protocol frames —
   workers must never print. *)
let worker_main ?(max_failures = 5) task =
  let cap = Stdlib.max 1 max_failures in
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  let process = Task.processor task in
  let cutoff = ref max_int in
  let rec loop () =
    match Codec.input_frame stdin with
    | None -> ()
    | Some payload when String.length payload = 0 ->
      raise (Codec.Corrupt "empty frame")
    | Some payload ->
      if payload.[0] = tag_quit then ()
      else if payload.[0] = tag_assign then begin
        let u, p = Codec.get_uint payload 1 in
        let co, _ = Codec.get_uint payload p in
        cutoff := (if co = 0 then max_int else co - 1);
        let local = Verify.Topk.create cap in
        process
          ~record:(fun ~rank f -> Verify.Topk.insert local ~rank f)
          ~cutoff:(fun () -> !cutoff)
          u;
        Codec.output_frame stdout
          (encode_result
             { Codec.r_unit = u; r_entries = Verify.Topk.to_list local });
        loop ()
      end
      else raise (Codec.Corrupt (Printf.sprintf "unknown tag %C" payload.[0]))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

type worker = {
  w_pid : int;
  w_in : Unix.file_descr;  (* coordinator -> worker (worker's stdin) *)
  w_out : Unix.file_descr;  (* worker -> coordinator (worker's stdout) *)
  mutable w_buf : string;  (* bytes read but not yet framed *)
  mutable w_unit : int;  (* in-flight unit id, -1 when idle *)
}

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done;
  Metrics.add m_ipc_bytes n

let spawn argv =
  if Array.length argv = 0 then invalid_arg "Mp.run: empty worker argv";
  let down_r, down_w = Unix.pipe () in
  let up_r, up_w = Unix.pipe () in
  (* The coordinator ends must not leak into the children: an inherited
     [down_w] would keep a sibling's stdin open past our close, hanging
     its EOF-based shutdown. *)
  Unix.set_close_on_exec down_w;
  Unix.set_close_on_exec up_r;
  let pid = Unix.create_process argv.(0) argv down_r up_w Unix.stderr in
  Unix.close down_r;
  Unix.close up_w;
  { w_pid = pid; w_in = down_w; w_out = up_r; w_buf = ""; w_unit = -1 }

exception Worker_died of int

(* Farm the task's pending units over [procs] worker processes spawned
   from [argv], stream their per-unit results through the optional
   checkpoint writer, and perform the standard deterministic merge.
   Dead-simple scheduling — one in-flight unit per worker — because at
   canonical granularity (hundreds of units) a whole-unit round trip is
   large next to a frame's worth of IPC. *)
let run ?(max_failures = 5) ~procs ~argv ?checkpoint ?resumed task =
  let cap = Stdlib.max 1 max_failures in
  let procs = Stdlib.max 1 procs in
  let nunits = Task.nunits task in
  let done_tbl =
    match resumed with Some t -> t | None -> Hashtbl.create 1
  in
  let resumed_sources =
    Hashtbl.fold (fun _ r acc -> r.Codec.r_entries :: acc) done_tbl []
  in
  Metrics.add m_units_resumed (Hashtbl.length done_tbl);
  let topk = Verify.Topk.create cap in
  List.iter
    (List.iter (fun (rank, f) -> Verify.Topk.insert topk ~rank f))
    resumed_sources;
  let cutoff () =
    if Verify.Topk.full topk then Verify.Topk.max_rank topk else max_int
  in
  let pending = Queue.create () in
  for u = 0 to nunits - 1 do
    if not (Hashtbl.mem done_tbl u) then Queue.add u pending
  done;
  let sources = ref resumed_sources in
  if Queue.is_empty pending then Task.merge task ~max_failures:cap !sources
  else begin
    let workers =
      Array.init
        (Stdlib.min procs (Queue.length pending))
        (fun _ -> spawn argv)
    in
    (* Hand [w] the next unit the cutoff hasn't already retired;
       cutoff-skipped units are dropped, never checkpointed (same
       soundness rule as the in-process scheduler). *)
    let rec assign w =
      if Queue.is_empty pending then w.w_unit <- -1
      else begin
        let u = Queue.pop pending in
        let co = cutoff () in
        if co < max_int && Task.min_rank task u > co then assign w
        else begin
          w.w_unit <- u;
          write_all w.w_in (Codec.frame (encode_assign ~unit_id:u ~cutoff:co))
        end
      end
    in
    let handle_payload w payload =
      if String.length payload = 0 || payload.[0] <> tag_result then
        raise (Codec.Corrupt "coordinator: expected result frame");
      let r, _ = Codec.get_unit_result payload 1 in
      if r.Codec.r_unit <> w.w_unit then
        raise
          (Codec.Corrupt
             (Printf.sprintf "coordinator: unit %d result for assignment %d"
                r.Codec.r_unit w.w_unit));
      List.iter
        (fun (rank, f) -> Verify.Topk.insert topk ~rank f)
        r.Codec.r_entries;
      (match checkpoint with
      | Some ck -> Checkpoint.append ck r
      | None -> ());
      sources := r.Codec.r_entries :: !sources;
      w.w_unit <- -1;
      assign w
    in
    let rec drain_frames w =
      match Codec.read_frame w.w_buf 0 with
      | None -> ()
      | Some (payload, next) ->
        w.w_buf <- String.sub w.w_buf next (String.length w.w_buf - next);
        handle_payload w payload;
        drain_frames w
    in
    let chunk = Bytes.create 65536 in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun w ->
            (try
               write_all w.w_in (Codec.frame (String.make 1 tag_quit))
             with Unix.Unix_error _ -> ());
            (try Unix.close w.w_in with Unix.Unix_error _ -> ());
            (try Unix.close w.w_out with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] w.w_pid))
          workers)
      (fun () ->
        Array.iter assign workers;
        while Array.exists (fun w -> w.w_unit >= 0) workers do
          let fds =
            Array.to_list workers
            |> List.filter_map (fun w ->
                   if w.w_unit >= 0 then Some w.w_out else None)
          in
          let ready, _, _ = Unix.select fds [] [] (-1.0) in
          List.iter
            (fun fd ->
              let w =
                List.find
                  (fun w -> w.w_out = fd)
                  (Array.to_list workers)
              in
              let n = Unix.read fd chunk 0 (Bytes.length chunk) in
              if n = 0 then raise (Worker_died w.w_pid)
              else begin
                Metrics.add m_ipc_bytes n;
                w.w_buf <- w.w_buf ^ Bytes.sub_string chunk 0 n;
                drain_frames w
              end)
            ready
        done;
        Task.merge task ~max_failures:cap !sources)
  end
