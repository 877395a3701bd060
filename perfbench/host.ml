(* Host facts and small numeric helpers shared by the workloads. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
(** Monotonic clock, integer nanoseconds; allocation-free. *)

let s_of_ns ns = float_of_int ns /. 1e9

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    Some (really_input_string ic (in_channel_length ic))

(* /proc files report length 0, so read them line by line. *)
let proc_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    go []

let proc_field path key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = key ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (proc_lines path)

(* The CPUs this process may run on; their count is what [nproc]
   prints. *)
let cpus () =
  match proc_field "/proc/self/status" "Cpus_allowed_list" with
  | None -> List.init (Domain.recommended_domain_count ()) Fun.id
  | Some list ->
    String.split_on_char ',' list
    |> List.concat_map (fun range ->
           match String.split_on_char '-' (String.trim range) with
           | [ a; b ] ->
             let a = int_of_string a in
             List.init (int_of_string b - a + 1) (fun i -> a + i)
           | [ a ] when a <> "" -> [ int_of_string a ]
           | _ -> [])

let nproc () = List.length (cpus ())

external pin_cpu : int -> unit = "perfbench_pin_cpu"

(* VmHWM (peak resident set) of a live process, in MB. *)
let peak_rss_mb pid =
  match proc_field (Printf.sprintf "/proc/%s/status" pid) "VmHWM" with
  | None -> failwith ("no VmHWM for process " ^ pid)
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)

(* The checkout's commit, read from .git without running git; a source
   tree without .git (an exported checkout) reports "unknown". *)
let commit () =
  let ref_of line =
    let line = String.trim line in
    if String.length line > 5 && String.sub line 0 5 = "ref: " then
      Some (String.sub line 5 (String.length line - 5))
    else None
  in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
    match ref_of head with
    | None -> String.trim head
    | Some r -> (
      match read_file (".git/" ^ r) with
      | Some sha -> String.trim sha
      | None ->
        let packed =
          Option.value ~default:"" (read_file ".git/packed-refs")
          |> String.split_on_char '\n'
          |> List.find_opt (fun l ->
                 let n = String.length l and m = String.length r in
                 n > m && String.sub l (n - m) m = r)
        in
        match packed with
        | Some l -> List.hd (String.split_on_char ' ' l)
        | None -> "unknown"))

(* Index of the nearest-rank [p]th percentile in a sorted array of [n]
   (n > 0) entries. *)
let rank n p = max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1))

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.
