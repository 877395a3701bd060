(* Packed bitsets on native ints (62 usable bits per word would be fine, but
   we use 63 — OCaml native ints carry 63 bits on 64-bit platforms). *)

let bits_per_word = Sys.int_size - 1 (* 62 on 64-bit; safe and portable *)

type t = { capacity : int; words : int array }

let word_count capacity = (capacity + bits_per_word - 1) / bits_per_word

let create capacity =
  assert (capacity >= 0);
  { capacity; words = Array.make (max 1 (word_count capacity)) 0 }

let capacity t = t.capacity

let copy t = { t with words = Array.copy t.words }

let blit ~src ~dst =
  assert (src.capacity = dst.capacity);
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let check t i = assert (i >= 0 && i < t.capacity)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let fill t =
  let nw = Array.length t.words in
  for w = 0 to nw - 1 do
    t.words.(w) <- -1 lsr (Sys.int_size - bits_per_word)
  done;
  let used_in_last = t.capacity - ((nw - 1) * bits_per_word) in
  if used_in_last < bits_per_word then
    t.words.(nw - 1) <- t.words.(nw - 1) land ((1 lsl used_in_last) - 1);
  if t.capacity = 0 then t.words.(0) <- 0

let full capacity =
  let t = create capacity in
  fill t;
  t

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let equal a b =
  assert (a.capacity = b.capacity);
  Array.for_all2 (fun x y -> x = y) a.words b.words

let subset a b =
  assert (a.capacity = b.capacity);
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land lnot b.words.(w) <> 0 then ok := false
  done;
  !ok

let inter_into a b =
  assert (a.capacity = b.capacity);
  for w = 0 to Array.length a.words - 1 do
    a.words.(w) <- a.words.(w) land b.words.(w)
  done

let diff_into a b =
  assert (a.capacity = b.capacity);
  for w = 0 to Array.length a.words - 1 do
    a.words.(w) <- a.words.(w) land lnot b.words.(w)
  done

let union_into a b =
  assert (a.capacity = b.capacity);
  for w = 0 to Array.length a.words - 1 do
    a.words.(w) <- a.words.(w) lor b.words.(w)
  done

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) in
    while !word <> 0 do
      let low = !word land - !word in
      let rec bit_index i x = if x = 1 then i else bit_index (i + 1) (x lsr 1) in
      f ((w * bits_per_word) + bit_index 0 low);
      word := !word land (!word - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list capacity xs =
  let t = create capacity in
  List.iter (add t) xs;
  t

let choose t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i

let compare a b =
  assert (a.capacity = b.capacity);
  let nw = Array.length a.words in
  let rec go w =
    if w = nw then 0
    else
      let c = Stdlib.compare a.words.(w) b.words.(w) in
      if c <> 0 then c else go (w + 1)
  in
  go 0

let hash t = Hashtbl.hash t.words

let to_key t =
  (* 8 bytes per word, little-endian: a canonical, allocation-cheap string
     key for hash tables (equal sets over equal capacities get equal keys). *)
  let nw = Array.length t.words in
  let b = Bytes.create (nw * 8) in
  for w = 0 to nw - 1 do
    Bytes.set_int64_le b (w * 8) (Int64.of_int t.words.(w))
  done;
  Bytes.unsafe_to_string b

let count_common a b =
  assert (a.capacity = b.capacity);
  let acc = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(w) land b.words.(w))
  done;
  !acc

let inter_into_from ~dst a b =
  assert (dst.capacity = a.capacity && a.capacity = b.capacity);
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- a.words.(w) land b.words.(w)
  done

let rec lowest_bit_index i x = if x land 1 = 1 then i else lowest_bit_index (i + 1) (x lsr 1)

let iter_common f a b =
  assert (a.capacity = b.capacity);
  for w = 0 to Array.length a.words - 1 do
    let word = ref (a.words.(w) land b.words.(w)) in
    while !word <> 0 do
      let low = !word land - !word in
      f ((w * bits_per_word) + lowest_bit_index 0 low);
      word := !word land (!word - 1)
    done
  done

let first_common a b =
  assert (a.capacity = b.capacity);
  let nw = Array.length a.words in
  let rec go w =
    if w = nw then None
    else
      let common = a.words.(w) land b.words.(w) in
      if common = 0 then go (w + 1)
      else Some ((w * bits_per_word) + lowest_bit_index 0 (common land -common))
  in
  go 0

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (elements t)
