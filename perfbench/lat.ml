(* Product-of-chains lattices, written by the benchmark itself so that the
   oracle can compute lub, order and covers componentwise without the
   program's lattice code.

   A level is a vector of coordinates, coordinate [i] in [0, dims.(i)),
   packed into one int in mixed radix.  Its name is ["L"] followed by one
   digit per coordinate, e.g. [L0312]. *)

type t = { dims : int array; stride : int array; size : int }

let make dims =
  if Array.length dims = 0 then invalid_arg "Lat.make: no chains";
  Array.iter
    (fun d -> if d < 2 || d > 10 then invalid_arg "Lat.make: chain length")
    dims;
  let k = Array.length dims in
  let stride = Array.make k 1 in
  for i = k - 2 downto 0 do
    stride.(i) <- stride.(i + 1) * dims.(i + 1)
  done;
  { dims; stride; size = stride.(0) * dims.(0) }

let size t = t.size
let bottom _ = 0
let coord t l i = l / t.stride.(i) mod t.dims.(i)

let lub t a b =
  let r = ref 0 in
  Array.iteri
    (fun i s -> r := !r + (s * max (coord t a i) (coord t b i)))
    t.stride;
  !r

let leq t a b =
  let ok = ref true in
  Array.iteri (fun i _ -> if coord t a i > coord t b i then ok := false) t.stride;
  !ok

(* Levels covered by [l]: one coordinate lowered by one. *)
let lower_covers t l =
  List.filter_map
    (fun i -> if coord t l i > 0 then Some (l - t.stride.(i)) else None)
    (List.init (Array.length t.dims) Fun.id)

(* Levels covering [l]: one coordinate raised by one. *)
let upper_covers t l =
  List.filter_map
    (fun i ->
      if coord t l i < t.dims.(i) - 1 then Some (l + t.stride.(i)) else None)
    (List.init (Array.length t.dims) Fun.id)

let name t l =
  let b = Bytes.make (1 + Array.length t.dims) 'L' in
  Array.iteri
    (fun i _ -> Bytes.set b (i + 1) (Char.chr (48 + coord t l i)))
    t.dims;
  Bytes.unsafe_to_string b

let of_name t s =
  let k = Array.length t.dims in
  if String.length s <> k + 1 || s.[0] <> 'L' then None
  else
    let rec go i acc =
      if i = k then Some acc
      else
        let c = Char.code s.[i + 1] - 48 in
        if c < 0 || c >= t.dims.(i) then None
        else go (i + 1) (acc + (c * t.stride.(i)))
    in
    go 0 0

(* The lattice file: every level, then every cover pair. *)
let render t =
  let buf = Buffer.create (16 * t.size) in
  Buffer.add_string buf "# product of chains ";
  Buffer.add_string buf
    (String.concat " x " (Array.to_list (Array.map string_of_int t.dims)));
  Buffer.add_char buf '\n';
  for l = 0 to t.size - 1 do
    if l mod 16 = 0 then
      Buffer.add_string buf (if l = 0 then "levels " else "\nlevels ")
    else Buffer.add_string buf ", ";
    Buffer.add_string buf (name t l)
  done;
  Buffer.add_char buf '\n';
  for l = 0 to t.size - 1 do
    List.iter
      (fun h -> Printf.bprintf buf "%s < %s\n" (name t l) (name t h))
      (upper_covers t l)
  done;
  Buffer.contents buf
