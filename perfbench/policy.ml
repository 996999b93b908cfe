(* Seeded policy generators and their rendering to the program's .cst text.

   Every generator runs in time linear in its output: attributes are
   drawn by index arithmetic and small rejection loops, never by
   shuffling an index pool.  A constraint [lub{lhs} >= rhs] is an edge
   from every lhs attribute to an attribute rhs (the direction in which
   the program's priority computation reads it); the DAG parts only draw
   edges from a lower to a higher attribute index. *)

type rhs = Attr of int | Level of int
type cst = { lhs : int array; rhs : rhs }
type t = { n : int; csts : cst array }

let attr_name i = "A" ^ string_of_int i

(* A level other than bottom. *)
let some_level rng lat = 1 + Random.State.int rng (Lat.size lat - 1)

(* [k] distinct indices in [lo, hi), [k <= hi - lo], by rejection; [k] is
   small, so this is O(k^2) whatever the range. *)
let distinct rng k lo hi =
  let picked = Array.make k (-1) in
  let i = ref 0 in
  while !i < k do
    let x = lo + Random.State.int rng (hi - lo) in
    if not (Array.exists (( = ) x) picked) then begin
      picked.(!i) <- x;
      incr i
    end
  done;
  Array.sort compare picked;
  picked

(* Constraint densities of the DAG part, per attribute.  The out-degree
   they give (1/2 simple + 3 × 1/8 complex on average) is below one, so
   the set of attributes each one reaches stays small and solutions use
   the whole lattice instead of collapsing to top. *)
let dag_csts rng lat ~lo ~hi =
  let acc = ref [] in
  let add c = acc := c :: !acc in
  let span = hi - lo in
  for _ = 1 to span / 2 do
    (* simple inference: an edge to a strictly higher index *)
    let src = lo + Random.State.int rng (span - 1) in
    let dst = src + 1 + Random.State.int rng (hi - src - 1) in
    add { lhs = [| src |]; rhs = Attr dst }
  done;
  for _ = 1 to span / 8 do
    (* complex inference: 2 to 4 attributes below the rhs *)
    let dst = lo + 4 + Random.State.int rng (span - 4) in
    let k = 2 + Random.State.int rng 3 in
    add { lhs = distinct rng k lo dst; rhs = Attr dst }
  done;
  for _ = 1 to span / 16 do
    (* association: 2 to 4 attributes anywhere, a level rhs *)
    let k = 2 + Random.State.int rng 3 in
    add { lhs = distinct rng k lo hi; rhs = Level (some_level rng lat) }
  done;
  for _ = 1 to span / 4 do
    (* basic floor *)
    add
      {
        lhs = [| lo + Random.State.int rng span |];
        rhs = Level (some_level rng lat);
      }
  done;
  !acc

(* Seeded constraint order, so the file is not sorted by kind. *)
let shuffled rng csts =
  let csts = Array.of_list csts in
  for i = Array.length csts - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = csts.(i) in
    csts.(i) <- csts.(j);
    csts.(j) <- x
  done;
  csts

(* One strongly connected island over [lo, lo + size): a Hamiltonian
   cycle through a seeded permutation of its attributes, [chords] extra
   simple constraints between distinct members, and [floors] basic
   constraints. *)
let island rng lat ~lo ~size ~chords ~floors =
  let perm = Array.init size (fun i -> lo + i) in
  for i = size - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  let cycle =
    List.init size (fun i ->
        { lhs = [| perm.(i) |]; rhs = Attr perm.((i + 1) mod size) })
  in
  let chord _ =
    let p = distinct rng 2 lo (lo + size) in
    let a, b = if Random.State.bool rng then (p.(0), p.(1)) else (p.(1), p.(0)) in
    { lhs = [| a |]; rhs = Attr b }
  in
  let floor _ =
    {
      lhs = [| lo + Random.State.int rng size |];
      rhs = Level (some_level rng lat);
    }
  in
  cycle @ List.init chords chord @ List.init floors floor

(* The one-shot policy: a DAG over [n] attributes plus [islands] SCC
   islands of [island_size] attributes, one at a seeded offset inside
   each of [islands] equal slices of the index range.  An island's
   members are contiguous, and DAG edges only go up in index, so the
   islands are the only cycles. *)
let mixed rng lat ~n ~islands ~island_size =
  let slice = n / islands in
  let isl =
    List.concat
      (List.init islands (fun k ->
           let lo = (k * slice) + Random.State.int rng (slice - island_size) in
           island rng lat ~lo ~size:island_size ~chords:(island_size / 2)
             ~floors:4))
  in
  { n; csts = shuffled rng (dag_csts rng lat ~lo:0 ~hi:n @ isl) }

(* The serve policy: the DAG part alone. *)
let acyclic rng lat ~n = { n; csts = shuffled rng (dag_csts rng lat ~lo:0 ~hi:n) }

(* A single SCC of simple constraints: a Hamiltonian cycle, [chords]
   chords and [floors] floors. *)
let single_scc rng lat ~n ~chords ~floors =
  { n; csts = Array.of_list (island rng lat ~lo:0 ~size:n ~chords ~floors) }

(* --- rendering ---------------------------------------------------- *)

let cst_line lat c =
  let lhs =
    match c.lhs with
    | [| a |] -> attr_name a
    | many ->
        "{"
        ^ String.concat ", " (Array.to_list (Array.map attr_name many))
        ^ "}"
  in
  let rhs = match c.rhs with Attr b -> attr_name b | Level l -> Lat.name lat l in
  lhs ^ " >= " ^ rhs

(* The .cst file: an [attrs] declaration of every attribute in index
   order (so attribute ids equal indices), then one constraint per line
   in array order. *)
let render lat p =
  let buf = Buffer.create (32 * (p.n + Array.length p.csts)) in
  Buffer.add_string buf "attrs ";
  for i = 0 to p.n - 1 do
    if i > 0 then Buffer.add_string buf ", ";
    Buffer.add_string buf (attr_name i)
  done;
  Buffer.add_char buf '\n';
  Array.iter
    (fun c ->
      Buffer.add_string buf (cst_line lat c);
      Buffer.add_char buf '\n')
    p.csts;
  Buffer.contents buf

(* Edges for {!Graph}: every lhs attribute to an attribute rhs. *)
let edges csts =
  Array.fold_left
    (fun acc c ->
      match c.rhs with
      | Level _ -> acc
      | Attr b -> Array.fold_left (fun acc a -> (a, b) :: acc) acc c.lhs)
    [] csts

let graph p = Graph.of_edges p.n (edges p.csts)
