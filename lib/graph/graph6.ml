(* graph6: n encoded as chr(n+63) for n <= 62; then the bits x(i,j) for
   j = 1..n-1, i = 0..j-1 (upper triangle, column by column), packed
   big-endian six at a time into chr(bits + 63). *)

let encode g =
  let n = Graph.order g in
  if n > 62 then invalid_arg "Graph6.encode: order > 62 unsupported";
  let buf = Buffer.create 16 in
  Buffer.add_char buf (Char.chr (n + 63));
  let bits = ref [] in
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      bits := (if Graph.adjacent g i j then 1 else 0) :: !bits
    done
  done;
  let bits = List.rev !bits in
  let rec pack = function
    | [] -> ()
    | l ->
      let rec take6 acc count = function
        | rest when count = 6 -> (acc, rest)
        | [] -> (acc lsl (6 - count), [])
        | b :: rest -> take6 ((acc lsl 1) lor b) (count + 1) rest
      in
      let word, rest = take6 0 0 l in
      Buffer.add_char buf (Char.chr (word + 63));
      pack rest
  in
  pack bits;
  Buffer.contents buf

let decode s =
  if String.length s < 1 then invalid_arg "Graph6.decode: empty";
  let n = Char.code s.[0] - 63 in
  if n < 0 || n > 62 then invalid_arg "Graph6.decode: bad order byte";
  let needed_bits = n * (n - 1) / 2 in
  let needed_chars = (needed_bits + 5) / 6 in
  if String.length s <> 1 + needed_chars then
    invalid_arg "Graph6.decode: wrong length";
  let bit idx =
    let c = Char.code s.[1 + (idx / 6)] - 63 in
    if c < 0 || c > 63 then invalid_arg "Graph6.decode: bad data byte";
    c lsr (5 - (idx mod 6)) land 1 = 1
  in
  (* [encode] pads the last character with zero bits; anything else
     would decode to a graph that re-encodes differently. *)
  for idx = needed_bits to (6 * needed_chars) - 1 do
    if bit idx then invalid_arg "Graph6.decode: nonzero padding"
  done;
  let b = Graph.builder n in
  let idx = ref 0 in
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      if bit !idx then Graph.add_edge b i j;
      incr idx
    done
  done;
  Graph.freeze b
