(* Overflow-guarded addition: ranks at G(200,6) scale approach int63, and
   a silent wrap would corrupt every downstream consumer (rank-tagged
   merges, checkpoint spans) without any crash to notice.  The guard
   checks {e before} the operation — the old [next < 0] post-check missed
   products that wrap past the sign bit back into positive territory. *)
let add_checked ~what a b =
  if a > max_int - b then
    invalid_arg (Printf.sprintf "Combinat.%s: overflow" what)
  else a + b

let binomial_loop n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for j = 1 to k do
      let f = n - k + j in
      (* Conservative within a factor of [j]: the running product holds
         [C(n-k+j-1, j-1) * f = C(n-k+j, j) * j] before the division, so
         values within [max_int / k] of the limit raise even when the
         final binomial would fit.  Raising beats wrapping — callers that
         need those extremes must widen, not guess. *)
      if !acc > max_int / f then invalid_arg "Combinat.binomial: overflow";
      acc := !acc * f / j
    done;
    !acc
  end

(* Fault spaces rank a set per checked item, so the binomials they use
   (n <= 512, k <= 8, far from overflow) are tabulated per domain. *)
let table =
  Domain.DLS.new_key (fun () ->
      Array.init 513 (fun n -> Array.init 9 (binomial_loop n)))

let binomial n k =
  if n >= 0 && n <= 512 && k >= 0 && k <= 8 then
    (Domain.DLS.get table).(n).(k)
  else binomial_loop n k

let count_up_to n k =
  let acc = ref 0 in
  for j = 0 to k do
    acc := add_checked ~what:"count_up_to" !acc (binomial n j)
  done;
  !acc

(* Lexicographic successor of a k-combination stored in [buf]. *)
let iter_choose n k f =
  if k < 0 || k > n then ()
  else if k = 0 then f [||]
  else begin
    let buf = Array.init k (fun i -> i) in
    let continue = ref true in
    while !continue do
      f buf;
      (* Rightmost position that can advance; -1 when exhausted. *)
      let rec find i =
        if i < 0 then -1
        else if buf.(i) < n - k + i then i
        else find (i - 1)
      in
      let i = find (k - 1) in
      if i < 0 then continue := false
      else begin
        buf.(i) <- buf.(i) + 1;
        for j = i + 1 to k - 1 do
          buf.(j) <- buf.(j - 1) + 1
        done
      end
    done
  end

let iter_subsets_up_to n k f =
  for size = 0 to min k n do
    iter_choose n size (fun buf -> f buf size)
  done

(* Prefix-tree (DFS) enumeration of subsets of size <= k.  A node is a
   sorted subset [buf.(0..len-1)]; its children append one element
   strictly greater than its maximum, so every subset is visited exactly
   once.  [enter buf len] is called on arrival; returning [false] prunes
   the node's descendants.  [leave buf len] is always called after the
   subtree (pruned or not) — enter/leave bracket cleanly, so callers can
   mirror the walk in mutable state (fault masks, plan stacks). *)
let iter_subsets_dfs ?(root = [||]) n k ~enter ~leave =
  let rlen = Array.length root in
  if rlen > k then invalid_arg "Combinat.iter_subsets_dfs: root longer than k";
  let buf = Array.make (max 1 k) 0 in
  Array.blit root 0 buf 0 rlen;
  let rec visit len =
    let descend = enter buf len in
    if descend && len < k then begin
      let lo = if len = 0 then 0 else buf.(len - 1) + 1 in
      for v = lo to n - 1 do
        buf.(len) <- v;
        visit (len + 1)
      done
    end;
    leave buf len
  in
  visit rlen

(* Global rank of the subset [buf.(0..len-1)] (sorted ascending) in the
   size-major order used by [iter_subsets_up_to]: all smaller sizes
   first, lexicographic within a size.  The within-size lex rank counts,
   for each position i, the combinations whose first i elements match
   and whose (i+1)-th element lies strictly between the predecessor and
   buf.(i) (hockey-stick form: C(n-prev-1, len-i) - C(n-a, len-i)). *)
let rank_of_subset n buf len =
  let base = count_up_to n (len - 1) in
  let lex = ref 0 and prev = ref (-1) in
  for i = 0 to len - 1 do
    let a = buf.(i) in
    lex :=
      add_checked ~what:"rank_of_subset" !lex
        (binomial (n - !prev - 1) (len - i) - binomial (n - a) (len - i));
    prev := a
  done;
  add_checked ~what:"rank_of_subset" base !lex

let fold_choose n k f init =
  let acc = ref init in
  iter_choose n k (fun buf -> acc := f !acc buf);
  !acc

let exists_choose n k p =
  let exception Found in
  try
    iter_choose n k (fun buf -> if p buf then raise Found);
    false
  with Found -> true

(* Floyd's algorithm: uniform k-subset of [0..n-1]. *)
let sample rng n k =
  assert (0 <= k && k <= n);
  let chosen = Hashtbl.create (2 * k + 1) in
  for j = n - k to n - 1 do
    let t = Random.State.int rng (j + 1) in
    if Hashtbl.mem chosen t then Hashtbl.replace chosen j ()
    else Hashtbl.replace chosen t ()
  done;
  let out = Hashtbl.fold (fun x () acc -> x :: acc) chosen [] in
  let arr = Array.of_list out in
  Array.sort Int.compare arr;
  arr

let sample_up_to rng n k =
  let size = Random.State.int rng (min k n + 1) in
  sample rng n size
