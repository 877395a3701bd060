type result = Path of int list | No_path | Budget_exceeded

exception Out_of_budget

module Metrics = Gdpn_obs.Metrics
module Mclock = Gdpn_obs.Mclock

(* Observability instruments (process-wide, see Gdpn_obs.Metrics).
   The DFS hot loop touches only local refs; totals are flushed into the
   registry once per search, so instrumentation costs two atomic adds and
   one clock pair per solve, nothing per expansion. *)
let m_searches = Metrics.counter "hamilton.searches"
let m_expansions = Metrics.counter "hamilton.expansions"
let m_backtracks = Metrics.counter "hamilton.backtracks"
let h_search = Metrics.histogram "hamilton.search_ns"

(* The DFS works on mutable state:
   - [remaining]: alive nodes not yet on the path (excludes the head);
   - [trail]: the path so far, head first (reversed at the end);
   - [rem_deg]: for each remaining node, its number of remaining neighbours,
     updated incrementally when the head moves.

   All of that state lives in a [ctx] so repeated solves over the same
   graph order reuse the bitsets and arrays instead of reallocating them
   (Reconfig keeps one ctx per graph order on each domain). *)

type ctx = {
  cap : int;  (** graph order the scratch is sized for *)
  remaining : Bitset.t;
  seen : Bitset.t;  (** connectivity-prune scratch: reached set *)
  frontier : Bitset.t;  (** connectivity-prune scratch: current BFS wave *)
  next : Bitset.t;  (** connectivity-prune scratch: next BFS wave *)
  pool : Bitset.t;  (** start/end candidate scratch *)
  deg1 : Bitset.t;
      (** remaining nodes with exactly one remaining
          neighbour, maintained incrementally by [occupy]/[release] so the
          forced-endpoint prune is a word-parallel mask op instead of a
          scan over [remaining] *)
  forced : Bitset.t;  (** forced-endpoint prune scratch: [deg1 \ row head] *)
  rem_deg : int array;
  mutable cand : int array;
      (** candidate stack shared by all DFS levels: each [extend] frame
          occupies [cand.(base .. sp-1)], so the inner loop never
          allocates (the old code built and [List.sort]ed a fresh list per
          expansion) *)
  mutable cand_sp : int;
}

let make_ctx cap =
  {
    cap;
    remaining = Bitset.create cap;
    seen = Bitset.create cap;
    frontier = Bitset.create cap;
    next = Bitset.create cap;
    pool = Bitset.create cap;
    deg1 = Bitset.create cap;
    forced = Bitset.create cap;
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

(* ------------------------------------------------------------------ *)
(* Word-parallel kernel                                                *)
(* ------------------------------------------------------------------ *)

(* The three inner loops all run on precomputed adjacency bitset rows
   ([Graph.neighbours_mask]) instead of walking neighbour arrays with
   per-node membership probes:

   (a) the connectivity prune is a frontier-bitset BFS — each wave is
       [next ∪= row(v)] over the frontier's members followed by one
       word-parallel [∩ remaining, \ seen] pass, with no list stack and no
       per-node closure;
   (b) degree bookkeeping uses [Bitset.count_common row remaining] and
       [Bitset.iter_common] (neighbours-in-remaining without probing), and
       [release] restores [rem_deg] incrementally — a node's count cannot
       change while it is off the remaining set, so the value written at
       [occupy] time is still correct at backtrack time; the dead-end /
       forced-endpoint prune reads incrementally maintained summaries (a
       zero-degree counter and a degree-one bitset) instead of scanning
       the remaining set per expansion;
   (c) candidate generation enumerates [row(head) ∩ remaining] directly
       into the shared scratch stack.

   Visit order (candidate sort included) is byte-identical to the
   neighbour-array backtracker this kernel replaced, which test_kernel
   keeps as its oracle and holds to equal results and equal expansion
   counts. *)

let search ctx ~budget ~expansions:expansions_out g ~alive ~starts ~ends =
  let n = Graph.order g in
  if ctx.cap <> n then invalid_arg "Hamilton.search: ctx capacity mismatch";
  (* A [Found] / [Out_of_budget] raise unwinds past the frames' stack
     restores; the candidate stack is only live during one search, so
     resetting here makes that harmless. *)
  ctx.cand_sp <- 0;
  let total = Bitset.cardinal alive in
  if total = 0 then No_path
  else begin
    let search_start = Mclock.now_ns () in
    let expansions = ref 0 in
    let backtracks = ref 0 in
    let tick () =
      incr expansions;
      Option.iter (fun r -> incr r) expansions_out;
      match budget with
      | Some b when !expansions > b -> raise Out_of_budget
      | _ -> ()
    in
    let remaining = ctx.remaining in
    let rem_deg = ctx.rem_deg in
    let deg1 = ctx.deg1 in
    let ends_remaining = ref 0 in
    let deg0_count = ref 0 in
    let row v = Graph.neighbours_mask g v in

    (* Base state over the full alive set, computed once per search.
       Each start candidate is then pushed as an ordinary occupy/release
       delta (O(degree)) instead of recomputing every node's remaining
       degree from scratch per start (O(order · words)) — occupy from the
       base yields exactly the state the old per-start init built, since
       it removes precisely the start's own contributions. *)
    let init_base () =
      Bitset.blit ~src:alive ~dst:remaining;
      ends_remaining := 0;
      deg0_count := 0;
      Bitset.clear deg1;
      Bitset.iter
        (fun v ->
          let d = Bitset.count_common (row v) remaining in
          rem_deg.(v) <- d;
          if d = 0 then incr deg0_count else if d = 1 then Bitset.add deg1 v;
          if Bitset.mem ends v then incr ends_remaining)
        remaining
    in

    (* Occupy [v] (move head there): drop it from remaining, decrement its
       neighbours' counts.  [rem_deg.(v)] keeps its pre-occupy value: no
       occupy/release of another node touches it while [v] is off the
       remaining set, so [release] can restore it for free.  The
       [deg0_count]/[deg1] summaries are kept in lockstep so [feasible]
       never has to scan [remaining]. *)
    let occupy v =
      Bitset.remove remaining v;
      (match rem_deg.(v) with
      | 0 -> decr deg0_count
      | 1 -> Bitset.remove deg1 v
      | _ -> ());
      if Bitset.mem ends v then decr ends_remaining;
      Bitset.iter_common
        (fun u ->
          let d = rem_deg.(u) - 1 in
          rem_deg.(u) <- d;
          if d = 0 then begin
            Bitset.remove deg1 u;
            incr deg0_count
          end
          else if d = 1 then Bitset.add deg1 u)
        (row v) remaining
    in
    let release v =
      Bitset.iter_common
        (fun u ->
          let d = rem_deg.(u) in
          rem_deg.(u) <- d + 1;
          if d = 0 then begin
            decr deg0_count;
            Bitset.add deg1 u
          end
          else if d = 1 then Bitset.remove deg1 u)
        (row v) remaining;
      Bitset.add remaining v;
      (match rem_deg.(v) with
      | 0 -> incr deg0_count
      | 1 -> Bitset.add deg1 v
      | _ -> ());
      if Bitset.mem ends v then incr ends_remaining
    in

    (* Soundness prunes; [head] is the current path head.  Equivalent to
       the oracle's scan over [remaining] (the scan's early-exit only
       short-circuits failure, so the boolean is order-independent):
       - a zero-degree node is legal only as the unique remaining node
         entered directly from the head;
       - the forced set F = deg1 \ row(head) must satisfy |F| <= 1 and
         F ⊆ ends. *)
    let feasible head =
      let rem_count = Bitset.cardinal remaining in
      if rem_count = 0 then true
      else if !ends_remaining = 0 then false
      else begin
        let head_row = row head in
        if !deg0_count > 0 then
          (* rem_count = 1 forces the lone node's degree to 0, and
             conversely a degree-0 node among several remaining is fatal;
             when legal, connectivity holds trivially. *)
          rem_count = 1
          &&
          (match Bitset.choose remaining with
          | Some v -> Bitset.mem head_row v
          | None -> false)
        else begin
          let forced = ctx.forced in
          Bitset.blit ~src:deg1 ~dst:forced;
          Bitset.diff_into forced head_row;
          let fc = Bitset.cardinal forced in
          if
            fc > 1
            ||
            (fc = 1
            &&
            match Bitset.choose forced with
            | Some v -> not (Bitset.mem ends v)
            | None -> false)
          then false
          else begin
          (* Connectivity: every remaining node reachable from the head
             through remaining nodes.  Frontier-bitset BFS: whole rows are
             OR-ed into the next wave, then masked to unvisited remaining
             nodes in one word-parallel pass. *)
          let seen = ctx.seen in
          let frontier = ctx.frontier in
          let next = ctx.next in
          Bitset.inter_into_from ~dst:seen head_row remaining;
          Bitset.blit ~src:seen ~dst:frontier;
          let growing = ref (not (Bitset.is_empty frontier)) in
          while !growing do
            Bitset.clear next;
            Bitset.iter (fun v -> Bitset.union_into next (row v)) frontier;
            Bitset.inter_into next remaining;
            Bitset.diff_into next seen;
            if Bitset.is_empty next then growing := false
            else begin
              Bitset.union_into seen next;
              Bitset.blit ~src:next ~dst:frontier
            end
          done;
            Bitset.cardinal seen = rem_count
          end
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
        (* Candidates sorted by Warnsdorff: fewest onward moves first.
           This frame's candidates live at [cand.(base .. sp-1)];
           insertion sort in place keeps the visit order identical to the
           old per-expansion [List.sort] (degree ascending, ties by
           descending node id — the fold built its list reversed and the
           sort was stable). *)
        let base = ctx.cand_sp in
        Bitset.iter_common (fun u -> push_cand ctx u) (row head) remaining;
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
          release u;
          incr backtracks
        done;
        ctx.cand_sp <- base
      end
    in

    let start_candidates =
      Bitset.blit ~src:starts ~dst:ctx.pool;
      Bitset.inter_into ctx.pool alive;
      Bitset.elements ctx.pool
    in
    let result =
      try
        (match start_candidates with
        | [] -> ()
        | _ :: _ ->
          init_base ();
          (* A [Found]/[Out_of_budget] raise unwinds past the [release],
             leaving the scratch dirty — harmless, the next search
             rebuilds the base. *)
          List.iter
            (fun start ->
              occupy start;
              extend start [ start ];
              release start)
            start_candidates);
        No_path
      with
      | Found trail -> Path (List.rev trail)
      | Out_of_budget -> Budget_exceeded
    in
    Metrics.incr m_searches;
    Metrics.add m_expansions !expansions;
    Metrics.add m_backtracks !backtracks;
    Metrics.observe h_search (Mclock.now_ns () - search_start);
    result
  end

let solve_into ?budget ?expansions ctx g ~alive ~starts ~ends =
  (* Start from the smaller candidate pool: a spanning path reversed swaps
     the roles of [starts] and [ends]. *)
  let count set =
    Bitset.count_common set alive
  in
  if count ends < count starts then
    match search ctx ~budget ~expansions g ~alive ~starts:ends ~ends:starts with
    | Path p -> Path (List.rev p)
    | (No_path | Budget_exceeded) as r -> r
  else search ctx ~budget ~expansions g ~alive ~starts ~ends
