(* Computer search for the paper's "special solutions" (Figures 10-13).

   The paper (§3.3): "Some of our constructions are presented here without
   proof, because they were intuitively designed and exhaustively verified by
   human and/or computer checking."  This tool reproduces that process: it
   enumerates candidate standard graphs whose degree profile is forced by
   Lemmas 3.1/3.4/3.5, exhaustively verifies k-graceful-degradability, and
   prints the first solution found as an OCaml-ready description.  The
   results are frozen in [Gdpn_core.Special] and re-verified by the test
   suite. *)

open Gdpn_core
module Graph = Gdpn_graph.Graph
module Builder = Gdpn_graph.Builder
module Combinat = Gdpn_graph.Combinat

(* Exhaustive k-GD check with early exit, largest fault sets first (faults
   of maximal size fail soonest in practice). *)
let is_k_gd inst =
  let order = Instance.order inst in
  let k = inst.Instance.k in
  let model = Fault_model.node inst in
  let ok = ref true in
  (try
     for size = k downto 0 do
       Combinat.iter_choose order size (fun buf ->
           match Verify.check_model_set model (Array.to_list buf) with
           | Ok _ -> ()
           | Error _ ->
             ok := false;
             raise Exit)
     done
   with Exit -> ());
  !ok

(* Build a standard instance from a processor graph + terminal attachment. *)
let instance_of ~n ~k ~name proc_graph attach =
  Special.of_processor_graph ~n ~k ~name ~strategy:Instance.Generic proc_graph
    attach

(* Candidate processor graphs: a base circulant on [m] nodes plus extra
   edges pairing up the terminal-free nodes. *)

let with_extra_edges base pairs =
  let m = Graph.order base in
  let b = Graph.builder m in
  List.iter (fun (u, v) -> Graph.add_edge b u v) (Graph.edges base);
  try
    List.iter (fun (u, v) -> Graph.add_edge b u v) pairs;
    Some (Graph.freeze b)
  with Invalid_argument _ -> None (* duplicate edge: skip candidate *)

(* Choose [num_free] terminal-free processors and a perfect matching among
   them (the extra edges), then all ways to pick which attached processors
   get inputs. *)
let search ~n ~k ~procs:m ~free_count ~offsets ~log_name =
  let base = Builder.circulant m offsets in
  let found = ref None in
  let all = List.init m Fun.id in
  let rec matchings = function
    | [] -> [ [] ]
    | u :: rest ->
      List.concat_map
        (fun v ->
          let rest' = List.filter (fun x -> x <> v) rest in
          List.map (fun ms -> (u, v) :: ms) (matchings rest'))
        rest
  in
  (try
     Combinat.iter_choose m free_count (fun free_buf ->
         let free = Array.to_list free_buf in
         let attached = List.filter (fun v -> not (List.mem v free)) all in
         List.iter
           (fun extra ->
             match with_extra_edges base extra with
             | None -> ()
             | Some proc_graph ->
               let na = List.length attached in
               Combinat.iter_choose na (k + 1) (fun in_buf ->
                   let input_procs =
                     List.map (fun i -> List.nth attached i)
                       (Array.to_list in_buf)
                   in
                   let attach =
                     List.map
                       (fun p ->
                         ( p,
                           if List.mem p input_procs then Label.Input
                           else Label.Output ))
                       attached
                   in
                   let inst =
                     instance_of ~n ~k ~name:log_name proc_graph attach
                   in
                   if is_k_gd inst then begin
                     found := Some (proc_graph, attach);
                     raise Exit
                   end))
           (matchings free))
   with Exit -> ());
  !found

(* G(4,3) has an uneven terminal distribution: one processor carries both an
   input and an output terminal. *)
let search_g43 ~offsets =
  let m = 7 in
  let base = Builder.circulant m offsets in
  let found = ref None in
  (try
     for special = 0 to m - 1 do
       let others = List.filter (fun v -> v <> special) (List.init m Fun.id) in
       Combinat.iter_choose 6 3 (fun in_buf ->
           let input_procs =
             List.map (fun i -> List.nth others i) (Array.to_list in_buf)
           in
           let attach =
             ((special, Label.Input) :: (special, Label.Output)
             :: List.map
                  (fun p ->
                    ( p,
                      if List.mem p input_procs then Label.Input
                      else Label.Output ))
                  others)
           in
           let inst = instance_of ~n:4 ~k:3 ~name:"G(4,3)?" base attach in
           if is_k_gd inst then begin
             found := Some (base, attach);
             raise Exit
           end)
     done
   with Exit -> ());
  !found

let print_solution name = function
  | None -> Format.printf "%s: NOT FOUND in this candidate space@." name
  | Some (proc_graph, attach) ->
    Format.printf "%s FOUND@.  processor edges: %s@.  attach: %s@." name
      (String.concat "; "
         (List.map
            (fun (u, v) -> Printf.sprintf "(%d,%d)" u v)
            (Graph.edges proc_graph)))
      (String.concat "; "
         (List.map
            (fun (p, km) -> Printf.sprintf "(%d,%s)" p (Label.to_string km))
            attach))

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let run name f = if which = "all" || which = name then f () in
  run "g62" (fun () ->
      let r =
        List.find_map
          (fun offsets -> search ~n:6 ~k:2 ~procs:8 ~free_count:2 ~offsets ~log_name:"G(6,2)?")
          [ [ 1; 4 ]; [ 2; 4 ]; [ 3; 4 ] ]
      in
      print_solution "G(6,2)" r);
  run "g82" (fun () ->
      let r =
        List.find_map
          (fun offsets -> search ~n:8 ~k:2 ~procs:10 ~free_count:4 ~offsets ~log_name:"G(8,2)?")
          [ [ 1; 5 ]; [ 2; 5 ]; [ 3; 5 ]; [ 4; 5 ] ]
      in
      print_solution "G(8,2)" r);
  run "g43" (fun () ->
      let r =
        List.find_map (fun offsets -> search_g43 ~offsets)
          [ [ 1; 2 ]; [ 1; 3 ] ]
      in
      print_solution "G(4,3)" r);
  run "g73" (fun () ->
      let r =
        List.find_map
          (fun offsets -> search ~n:7 ~k:3 ~procs:10 ~free_count:2 ~offsets ~log_name:"G(7,3)?")
          [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ] ]
      in
      print_solution "G(7,3)" r)
