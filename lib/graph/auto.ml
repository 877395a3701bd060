(* Label-coloured automorphism groups and fault-set orbits.

   Generators come out of a stabilizer chain: for each base point
   [b = 0, 1, ...] we look for automorphisms that fix [0..b-1] pointwise
   and move [b] to some [w > b], searching with [Iso.find_isomorphism]
   under individualization colours (the fixed prefix gets unique tags in
   both copies; [b] in the domain and [w] in the codomain share one more
   tag).  Because each level's orbit is computed exactly, the union of
   the level generators generates the whole group.

   Every group then lists its elements once, when it is made: orbit
   queries are scans of that table, with no hashing and no walk. *)

type group = {
  degree : int;
  gens : int array list;
  elems : int array;
      (* [order * degree] images: element [e] maps [v] to
         [elems.(e * degree + v)]; element 0 is the identity *)
  inverses : int array array; (* [inverses.(e)] undoes element [e] *)
}

let degree g = g.degree
let order g = Array.length g.inverses
let generators g = g.gens
let is_trivial g = g.gens = []

module Perms = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  (* [Hashtbl.hash] scrambles the fold into every bit: bucket indices
     take the low bits, which the fold alone fills poorly *)
  let hash (p : t) = Hashtbl.hash (Array.fold_left (fun h v -> (h * 31) + v) 0 p)
end)

(* The element table of the group [gens] generate, by Dimino's
   algorithm: adjoin the generators one at a time.  Each one extends the
   group built so far, [h], by whole left cosets [t·h] ([t] applied after
   each element of [h]), found by closing the coset representatives under
   the generators adjoined so far: every element is composed and hashed
   once, and only representatives' products are looked up.  Element 0 is
   the identity and each element is listed once. *)
let make degree gens =
  let compose s r = Array.map (fun v -> s.(v)) r in
  let identity = Array.init degree Fun.id in
  let seen = Perms.create 64 in
  Perms.replace seen identity ();
  let group = ref [| identity |] and adjoined = ref [] in
  List.iter
    (fun g ->
      adjoined := g :: !adjoined;
      if not (Perms.mem seen g) then begin
        let h = !group and cosets = ref [] in
        let reps = Queue.create () in
        Queue.add identity reps;
        while not (Queue.is_empty reps) do
          let r = Queue.pop reps in
          List.iter
            (fun s ->
              let t = compose s r in
              if not (Perms.mem seen t) then begin
                let coset = Array.map (compose t) h in
                Array.iter (fun p -> Perms.replace seen p ()) coset;
                cosets := coset :: !cosets;
                Queue.add t reps
              end)
            !adjoined
        done;
        group := Array.concat (h :: List.rev !cosets)
      end)
    gens;
  let inverse p =
    let inv = Array.make degree 0 in
    Array.iteri (fun i v -> inv.(v) <- i) p;
    inv
  in
  {
    degree;
    gens;
    elems = Array.concat (Array.to_list !group);
    inverses = Array.map inverse !group;
  }

let trivial degree =
  if degree < 0 then invalid_arg "Auto.trivial: negative degree";
  make degree []

let is_permutation perm n =
  Array.length perm = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun v -> v >= 0 && v < n && not seen.(v) && (seen.(v) <- true; true))
    perm

(* Edge preservation; colour preservation is checked separately because
   reversal symmetries (input <-> output swaps) are deliberately not
   colour-preserving. *)
let is_automorphism g perm =
  let n = Graph.order g in
  is_permutation perm n
  &&
  let ok = ref true in
  for v = 0 to n - 1 do
    Graph.iter_neighbours g v (fun u ->
        if not (Graph.adjacent g perm.(v) perm.(u)) then ok := false)
  done;
  !ok

let automorphisms ?(colour = fun _ -> 0) g =
  let n = Graph.order g in
  if n = 0 then trivial 0
  else begin
    (* Densely renumber the base colours so individualization tags
       (>= nclasses) cannot collide with them. *)
    let table = Hashtbl.create 16 in
    let next = ref 0 in
    let base =
      Array.init n (fun v ->
          let c = colour v in
          match Hashtbl.find_opt table c with
          | Some d -> d
          | None ->
            let d = !next in
            incr next;
            Hashtbl.replace table c d;
            d)
    in
    let nclasses = !next in
    (* Refined classes bound the orbits: only [w] in [b]'s class can be an
       image of [b] under a colour-preserving automorphism. *)
    let refined = Iso.refined_colours ~colour:(fun v -> base.(v)) g in
    let gens = ref [] in
    (* Search for an automorphism fixing [0..b-1] pointwise and mapping
       [b] to [w]: give the prefix unique matching tags and force [b] in
       the domain copy onto [w] in the codomain copy with one more tag. *)
    let search b w =
      let ca v =
        if v < b then nclasses + v
        else if v = b then nclasses + n
        else base.(v)
      in
      let cb v =
        if v < b then nclasses + v
        else if v = w then nclasses + n
        else base.(v)
      in
      Iso.find_isomorphism ~colour_a:ca ~colour_b:cb g g
    in
    let orbit = Array.make n false in
    let closure b =
      (* Orbit of [b] under the generators found so far that fix the
         prefix [0..b-1] pointwise. *)
      Array.fill orbit 0 n false;
      orbit.(b) <- true;
      let level_gens =
        List.filter
          (fun p ->
            let rec fixes i = i >= b || (p.(i) = i && fixes (i + 1)) in
            fixes 0)
          !gens
      in
      let changed = ref true in
      while !changed do
        changed := false;
        for v = 0 to n - 1 do
          if orbit.(v) then
            List.iter
              (fun p ->
                if not orbit.(p.(v)) then begin
                  orbit.(p.(v)) <- true;
                  changed := true
                end)
              level_gens
        done
      done
    in
    for b = 0 to n - 2 do
      closure b;
      for w = b + 1 to n - 1 do
        if (not orbit.(w)) && refined.(w) = refined.(b) then begin
          match search b w with
          | Some p ->
            gens := p :: !gens;
            closure b
          | None -> ()
        end
      done
    done;
    make n (List.rev !gens)
  end

let is_identity p =
  let id = ref true in
  Array.iteri (fun i v -> if i <> v then id := false) p;
  !id

let of_generators ~degree gens =
  if degree < 0 then invalid_arg "Auto.of_generators: negative degree";
  let gens =
    List.filter
      (fun p ->
        if not (is_permutation p degree) then
          invalid_arg "Auto.of_generators: not a permutation of the degree";
        not (is_identity p))
      gens
  in
  make degree gens

let adjoin_involution g perm =
  if not (is_permutation perm g.degree) then
    invalid_arg "Auto.adjoin_involution: not a permutation of the degree";
  if is_identity perm then invalid_arg "Auto.adjoin_involution: identity";
  make g.degree (perm :: g.gens)

(* ------------------------------------------------------------------ *)
(* Orbits of vertex sets: scans of the element table                   *)
(* ------------------------------------------------------------------ *)

(* Lexicographic order on sorted sets of one size is the order of their
   least differing point: [s < t] iff the least point of [s Δ t] lies in
   [s].  So the scans compare images of a set as bitmasks, one band of
   [Sys.int_size] points at a time from point 0 up, and never build or
   sort an image.  [image_band] is the bitmask of the points in the band
   from [lo] of the image of [src.(0..len-1)] under the element whose
   images start at [elems.(base)]; callers have checked that [src] holds
   points of the degree.  While the degree fits one band, the loop has
   no data-dependent branch. *)
let image_band elems base src len lo =
  let m = ref 0 in
  for j = 0 to len - 1 do
    let p = Array.unsafe_get elems (base + Array.unsafe_get src j) - lo in
    if p >= 0 && p < Sys.int_size then m := !m lor (1 lsl p)
  done;
  !m

(* Compares the images of [src] under the elements at [base] and at
   [wbase], given the latter's band from [lo] as [wband]. *)
let rec cmp_images elems degree src len base wbase wband lo =
  let img = image_band elems base src len lo in
  let diff = img lxor wband in
  if diff <> 0 then if img land (diff land -diff) <> 0 then -1 else 1
  else
    let lo = lo + Sys.int_size in
    if lo >= degree then 0
    else
      cmp_images elems degree src len base wbase
        (image_band elems wbase src len lo)
        lo

(* Inserts [x] into the sorted [dst.(0..i-1)]: sets are a handful of
   points, so insertion sort is the fastest sort. *)
let insert dst i x =
  let j = ref (i - 1) in
  while !j >= 0 && dst.(!j) > x do
    dst.(!j + 1) <- dst.(!j);
    decr j
  done;
  dst.(!j + 1) <- x

(* Writes the sorted image of [src.(0..len-1)] into [dst]. *)
let write_image elems base src len dst =
  for i = 0 to len - 1 do
    insert dst i elems.(base + src.(i))
  done

(* A sorted copy of [set], checked to be a set of points of the group's
   degree (the scans read the table unchecked). *)
let sorted_set g fn set =
  let len = Array.length set in
  let s = Array.make len 0 in
  for i = 0 to len - 1 do
    let v = set.(i) in
    if v < 0 || v >= g.degree then invalid_arg (fn ^ ": point out of range");
    insert s i v
  done;
  for i = 1 to len - 1 do
    if s.(i - 1) = s.(i) then invalid_arg (fn ^ ": repeated point")
  done;
  s

let canonical_with_transport g set =
  let canon = sorted_set g "Auto.canonical_with_transport" set in
  let len = Array.length canon and d = g.degree in
  (* The first element whose image is least wins: the identity
     (element 0) unless some element maps the set strictly lower. *)
  let winner = ref 0 and wband = ref (image_band g.elems 0 set len 0) in
  for e = 1 to order g - 1 do
    if cmp_images g.elems d set len (e * d) (!winner * d) !wband 0 < 0 then begin
      winner := e;
      wband := image_band g.elems (e * d) set len 0
    end
  done;
  if !winner = 0 then (canon, None)
  else begin
    write_image g.elems (!winner * d) set len canon;
    (canon, Some g.inverses.(!winner))
  end

let canonical_set g set = fst (canonical_with_transport g set)

let orbit_of_set g set =
  let first = sorted_set g "Auto.orbit_of_set" set in
  let len = Array.length first in
  let images =
    Array.init (order g) (fun e ->
        let img = Array.make len 0 in
        write_image g.elems (e * g.degree) first len img;
        img)
  in
  Array.sort compare images;
  let others = ref [] in
  Array.iteri
    (fun i img ->
      if (i = 0 || img <> images.(i - 1)) && img <> first then
        others := img :: !others)
    images;
  first :: List.rev !others

let invariant_universe g univ =
  let inside = Array.make g.degree false in
  Array.iter
    (fun v ->
      if v < 0 || v >= g.degree then
        invalid_arg "Auto.invariant_universe: node out of range";
      inside.(v) <- true)
    univ;
  List.for_all
    (fun p -> Array.for_all (fun v -> inside.(p.(v))) univ)
    g.gens

let image g e v =
  if e < 0 || e >= order g || v < 0 || v >= g.degree then
    invalid_arg "Auto.image: element or point out of range";
  g.elems.((e * g.degree) + v)

type rep = { set : int array; size : int }

let fault_orbits ?universe g ~max_size =
  if max_size < 0 then invalid_arg "Auto.fault_orbits: negative max_size";
  let univ =
    match universe with
    | None -> Array.init g.degree Fun.id
    | Some u ->
      if not (invariant_universe g u) then
        invalid_arg "Auto.fault_orbits: universe not invariant under group";
      let u = Array.copy u in
      Array.sort compare u;
      u
  in
  let nu = Array.length univ in
  let n = order g in
  let set = Array.make (min max_size nu) 0 in
  let reps = ref [] in
  (* Enumeration is lexicographic within each size (and sizes ascend),
     orbits preserve size, and [univ] is sorted — so a subset is the
     first member of its orbit we meet iff no element maps it lower, and
     then the elements that fix it are its stabilizer. *)
  Combinat.iter_subsets_up_to nu max_size (fun buf len ->
      for i = 0 to len - 1 do
        set.(i) <- univ.(buf.(i))
      done;
      let band = image_band g.elems 0 set len 0 in
      let fixing = ref 1 and lower = ref false and e = ref 1 in
      while (not !lower) && !e < n do
        let c = cmp_images g.elems g.degree set len (!e * g.degree) 0 band 0 in
        if c < 0 then lower := true else if c = 0 then incr fixing;
        incr e
      done;
      if not !lower then
        reps := { set = Array.sub set 0 len; size = n / !fixing } :: !reps);
  Array.of_list (List.rev !reps)
