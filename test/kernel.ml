(* Test-side helpers around the search kernel.  The library's only
   search entry is [Hamilton.solve_into] on a caller-owned ctx; the
   suites also want a one-shot search, an independent check of the
   witnesses it returns, and the alive degree the backtracker oracle
   recomputes.  None of these is reached by a binary, so they live
   here, beside the oracle. *)

module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset
module Hamilton = Gdpn_graph.Hamilton

(* The neighbours of [v] present in [alive]. *)
let alive_degree g alive v =
  Bitset.count_common (Graph.neighbours_mask g v) alive

(* [Hamilton.solve_into] on a fresh ctx sized for [g]. *)
let spanning_path ?budget ?expansions g ~alive ~starts ~ends =
  Hamilton.solve_into ?budget ?expansions
    (Hamilton.make_ctx (Graph.order g))
    g ~alive ~starts ~ends

(* Whether [path] visits every node of [alive] exactly once along edges
   of [g], starting in [starts] and ending in [ends] — checked by the
   definition, without trusting the solver. *)
let is_spanning_path g ~alive ~starts ~ends path =
  match path with
  | [] -> false
  | first :: _ ->
    let rec last = function
      | [ x ] -> x
      | _ :: rest -> last rest
      | [] -> assert false
    in
    let n = Graph.order g in
    let seen = Bitset.create n in
    let rec consecutive_ok = function
      | a :: (b :: _ as rest) -> Graph.adjacent g a b && consecutive_ok rest
      | [ _ ] | [] -> true
    in
    let all_alive_distinct =
      List.for_all
        (fun v ->
          let fresh = (not (Bitset.mem seen v)) && Bitset.mem alive v in
          Bitset.add seen v;
          fresh)
        path
    in
    all_alive_distinct
    && Bitset.cardinal seen = Bitset.cardinal alive
    && consecutive_ok path
    && Bitset.mem starts first
    && Bitset.mem ends (last path)
