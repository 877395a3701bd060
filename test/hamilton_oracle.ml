(* The neighbour-array backtracker that the word-parallel kernel
   (Gdpn_graph.Hamilton) replaced, kept verbatim as the kernel's
   equivalence oracle: same prunes, same visit order, same tick
   placement, so for any input it must return the identical result and
   perform the identical number of expansions.  test_kernel diffs the
   two; perf is irrelevant here (it even keeps the old full
   [alive_degree] recompute in [release]).  It owns its scratch and
   writes no metric cells. *)

module Graph = Gdpn_graph.Graph
module Bitset = Gdpn_graph.Bitset
module Hamilton = Gdpn_graph.Hamilton

exception Out_of_budget

type scratch = {
  cap : int;
  remaining : Bitset.t;
  seen : Bitset.t;
  pool : Bitset.t;
  rem_deg : int array;
  mutable cand : int array;
  mutable cand_sp : int;
}

let make_scratch cap =
  {
    cap;
    remaining = Bitset.create cap;
    seen = Bitset.create cap;
    pool = Bitset.create cap;
    rem_deg = Array.make (max 1 cap) 0;
    cand = Array.make (max 16 cap) 0;
    cand_sp = 0;
  }

let push_cand ctx u =
  let len = Array.length ctx.cand in
  if ctx.cand_sp = len then begin
    let bigger = Array.make (2 * len) 0 in
    Array.blit ctx.cand 0 bigger 0 len;
    ctx.cand <- bigger
  end;
  ctx.cand.(ctx.cand_sp) <- u;
  ctx.cand_sp <- ctx.cand_sp + 1

let search ctx ~budget ~expansions:expansions_out g ~alive ~starts ~ends =
  let n = Graph.order g in
  if ctx.cap <> n then
    invalid_arg "Hamilton_oracle.search: scratch capacity mismatch";
  ctx.cand_sp <- 0;
  let total = Bitset.cardinal alive in
  if total = 0 then Hamilton.No_path
  else begin
    let expansions = ref 0 in
    let tick () =
      incr expansions;
      Option.iter (fun r -> incr r) expansions_out;
      match budget with
      | Some b when !expansions > b -> raise Out_of_budget
      | _ -> ()
    in
    let remaining = ctx.remaining in
    let rem_deg = ctx.rem_deg in
    let ends_remaining = ref 0 in

    let init_from start =
      Bitset.blit ~src:alive ~dst:remaining;
      Bitset.remove remaining start;
      ends_remaining := 0;
      Bitset.iter
        (fun v ->
          rem_deg.(v) <- Kernel.alive_degree g remaining v;
          if Bitset.mem ends v then incr ends_remaining)
        remaining
    in

    let occupy v =
      Bitset.remove remaining v;
      if Bitset.mem ends v then decr ends_remaining;
      Graph.iter_neighbours g v (fun u ->
          if Bitset.mem remaining u then rem_deg.(u) <- rem_deg.(u) - 1)
    in
    let release v =
      Graph.iter_neighbours g v (fun u ->
          if Bitset.mem remaining u then rem_deg.(u) <- rem_deg.(u) + 1);
      Bitset.add remaining v;
      if Bitset.mem ends v then incr ends_remaining;
      rem_deg.(v) <- Kernel.alive_degree g remaining v
    in

    let feasible head =
      let rem_count = Bitset.cardinal remaining in
      if rem_count = 0 then true
      else if !ends_remaining = 0 then false
      else begin
        let ok = ref true in
        let forced = ref 0 in
        Bitset.iter
          (fun v ->
            if !ok then
              if rem_deg.(v) = 0 then begin
                if rem_count > 1 || not (Graph.adjacent g head v) then
                  ok := false
              end
              else if rem_deg.(v) = 1 && not (Graph.adjacent g head v)
              then begin
                incr forced;
                if (not (Bitset.mem ends v)) || !forced > 1 then ok := false
              end)
          remaining;
        if not !ok then false
        else begin
          let seen = ctx.seen in
          Bitset.clear seen;
          let stack = ref [] in
          Graph.iter_neighbours g head (fun u ->
              if Bitset.mem remaining u && not (Bitset.mem seen u) then begin
                Bitset.add seen u;
                stack := u :: !stack
              end);
          let count = ref (Bitset.cardinal seen) in
          while !stack <> [] do
            match !stack with
            | [] -> ()
            | v :: rest ->
              stack := rest;
              Graph.iter_neighbours g v (fun u ->
                  if Bitset.mem remaining u && not (Bitset.mem seen u)
                  then begin
                    Bitset.add seen u;
                    incr count;
                    stack := u :: !stack
                  end)
          done;
          !count = rem_count
        end
      end
    in

    let exception Found of int list in
    let rec extend head trail =
      tick ();
      if Bitset.is_empty remaining then begin
        if Bitset.mem ends head then raise (Found trail)
      end
      else if feasible head then begin
        let base = ctx.cand_sp in
        Graph.iter_neighbours g head (fun u ->
            if Bitset.mem remaining u then push_cand ctx u);
        let sp = ctx.cand_sp in
        for i = base + 1 to sp - 1 do
          let x = ctx.cand.(i) in
          let dx = rem_deg.(x) in
          let j = ref i in
          while
            !j > base
            && (let p = ctx.cand.(!j - 1) in
                rem_deg.(p) > dx || (rem_deg.(p) = dx && p < x))
          do
            ctx.cand.(!j) <- ctx.cand.(!j - 1);
            decr j
          done;
          ctx.cand.(!j) <- x
        done;
        for i = base to sp - 1 do
          let u = ctx.cand.(i) in
          occupy u;
          extend u (u :: trail);
          release u
        done;
        ctx.cand_sp <- base
      end
    in

    let start_candidates =
      Bitset.blit ~src:starts ~dst:ctx.pool;
      Bitset.inter_into ctx.pool alive;
      Bitset.elements ctx.pool
    in
    try
      List.iter
        (fun start ->
          init_from start;
          extend start [ start ])
        start_candidates;
      Hamilton.No_path
    with
    | Found trail -> Hamilton.Path (List.rev trail)
    | Out_of_budget -> Hamilton.Budget_exceeded
  end

(* Mirrors [Hamilton.solve_into], including the smaller-endpoint-pool
   swap. *)
let spanning_path ?budget ?expansions g ~alive ~starts ~ends =
  let ctx = make_scratch (Graph.order g) in
  let count set = Bitset.count_common set alive in
  if count ends < count starts then
    match search ctx ~budget ~expansions g ~alive ~starts:ends ~ends:starts with
    | Hamilton.Path p -> Hamilton.Path (List.rev p)
    | (Hamilton.No_path | Hamilton.Budget_exceeded) as r -> r
  else search ctx ~budget ~expansions g ~alive ~starts ~ends
