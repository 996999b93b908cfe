(* The benchmark's oracle, computed apart from the program: it reads the
   program's rendered answers with its own parsers and checks them against
   the generated policy with the product-of-chains operations of {!Lat}. *)

open Policy

let value levels = function Attr b -> levels.(b) | Level l -> l

let lhs_lub lat levels c =
  Array.fold_left (fun acc a -> Lat.lub lat acc levels.(a)) (Lat.bottom lat) c.lhs

let satisfied lat levels c = Lat.leq lat (value levels c.rhs) (lhs_lub lat levels c)

(* Every constraint holds. *)
let check_satisfies lat csts levels =
  match Array.find_opt (fun c -> not (satisfied lat levels c)) csts with
  | None -> Ok ()
  | Some c ->
      Error
        (Printf.sprintf "violated: %s (lhs lub %s)" (Policy.cst_line lat c)
           (Lat.name lat (lhs_lub lat levels c)))

(* No attribute can drop to one of its lower covers while every
   constraint stays satisfied.  Every minimal solution meets this; only
   constraints with the attribute on the left can break when it drops. *)
let check_locally_minimal lat ~n csts levels =
  let by_lhs = Array.make n [] in
  Array.iter (fun c -> Array.iter (fun a -> by_lhs.(a) <- c :: by_lhs.(a)) c.lhs) csts;
  let witness = ref None in
  let a = ref 0 in
  while !witness = None && !a < n do
    let l = levels.(!a) in
    List.iter
      (fun l' ->
        if !witness = None then begin
          levels.(!a) <- l';
          if List.for_all (satisfied lat levels) by_lhs.(!a) then
            witness := Some (!a, l, l');
          levels.(!a) <- l
        end)
      (Lat.lower_covers lat l);
    incr a
  done;
  match !witness with
  | None -> Ok ()
  | Some (a, l, l') ->
      Error
        (Printf.sprintf "not minimal: %s can drop from %s to %s" (attr_name a)
           (Lat.name lat l) (Lat.name lat l'))

let check_minimal_solution lat ~n csts levels =
  Result.bind (check_satisfies lat csts levels) (fun () ->
      check_locally_minimal lat ~n csts levels)

(* The least solution of a policy of simple constraints only: each
   attribute gets the lub of the floors of every attribute it reaches.
   Components come out of {!Graph.scc} with their successors first. *)
let least_simple lat (p : Policy.t) =
  let floor = Array.make p.n (Lat.bottom lat) in
  Array.iter
    (fun c ->
      match (c.lhs, c.rhs) with
      | [| a |], Level l -> floor.(a) <- Lat.lub lat floor.(a) l
      | [| _ |], Attr _ -> ()
      | _ -> invalid_arg "Oracle.least_simple: complex constraint")
    p.csts;
  let g = Policy.graph p in
  let comp, k = Graph.scc g in
  let members = Array.make k [] in
  Array.iteri (fun v c -> members.(c) <- v :: members.(c)) comp;
  let lev = Array.make k (Lat.bottom lat) in
  for c = 0 to k - 1 do
    List.iter
      (fun v ->
        lev.(c) <- Lat.lub lat lev.(c) floor.(v);
        Graph.succ g v (fun w ->
            if comp.(w) <> c then lev.(c) <- Lat.lub lat lev.(c) lev.(comp.(w))))
      members.(c)
  done;
  Array.init p.n (fun v -> lev.(comp.(v)))

let check_least lat expected levels =
  let n = Array.length expected in
  let rec go a =
    if a = n then Ok ()
    else if expected.(a) <> levels.(a) then
      Error
        (Printf.sprintf "%s = %s, least solution has %s" (attr_name a)
           (Lat.name lat levels.(a)) (Lat.name lat expected.(a)))
    else go (a + 1)
  in
  go 0

(* --- reading the program's answers -------------------------------- *)

let attr_index ~n s =
  let len = String.length s in
  if len < 2 || s.[0] <> 'A' then None
  else
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some i when i >= 0 && i < n && attr_name i = s -> Some i
    | _ -> None

(* Collect [(attr, level)] pairs into a levels array, requiring each of
   the [n] attributes exactly once. *)
let bind lat ~n pairs =
  let levels = Array.make n (-1) in
  let rec go = function
    | [] -> (
        match Array.find_index (fun l -> l < 0) levels with
        | Some a -> Error ("no level for " ^ attr_name a)
        | None -> Ok levels)
    | (a, l) :: rest -> (
        match (attr_index ~n a, Lat.of_name lat l) with
        | None, _ -> Error ("unknown attribute " ^ a)
        | _, None -> Error ("unknown level " ^ l)
        | Some i, Some _ when levels.(i) >= 0 -> Error ("twice: " ^ a)
        | Some i, Some v ->
            levels.(i) <- v;
            go rest)
  in
  go pairs

(* The assignment file: [attr = LEVEL] lines. *)
let read_assignment lat ~n text =
  let pairs =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match String.index_opt line '=' with
           | None -> (line, "")
           | Some i ->
               ( String.trim (String.sub line 0 i),
                 String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))
  in
  bind lat ~n pairs

(* Where [sub] ends in [text], searching from [from]. *)
let find_after text sub from =
  let ls = String.length sub and lt = String.length text in
  let rec at i j = j = ls || (text.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = if i + ls > lt then None else if at i 0 then Some (i + ls) else go (i + 1) in
  go from

let contains text sub = find_after text sub 0 <> None

(* A serve envelope with status "ok" and a "solution" object whose keys
   and values are plain strings (attribute and level names need no
   escapes). *)
let read_envelope lat ~n text =
  match (contains text {|"status":"ok"|}, find_after text {|"solution":{|} 0) with
  | false, _ ->
      Error ("not an ok envelope: " ^ String.sub text 0 (min 200 (String.length text)))
  | _, None -> Error "envelope has no solution"
  | true, Some start ->
      let stop =
        match String.index_from_opt text start '}' with
        | Some i -> i
        | None -> String.length text
      in
      let unquote s =
        let s = String.trim s in
        let len = String.length s in
        if len >= 2 && s.[0] = '"' && s.[len - 1] = '"' then String.sub s 1 (len - 2)
        else s
      in
      let body = String.sub text start (stop - start) in
      let pairs =
        if String.trim body = "" then []
        else
          List.map
            (fun kv ->
              match String.index_opt kv ':' with
              | None -> (kv, "")
              | Some i ->
                  ( unquote (String.sub kv 0 i),
                    unquote (String.sub kv (i + 1) (String.length kv - i - 1)) ))
            (String.split_on_char ',' body)
      in
      bind lat ~n pairs
