(* Self-test of the benchmark's own code: the generators give policies of
   the stated shape, and the oracle accepts the program's answers and
   rejects planted wrong ones.

     selftest.exe

   Prints one line per check and exits 1 if any fails. *)

open Perfbench_lib
module Solver = Workloads.Solver

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let is_error = function Error _ -> true | Ok () -> false

(* Sizes of the nontrivial strongly connected components, and whether any
   singleton component carries a self-loop. *)
let shape (p : Policy.t) =
  let g = Policy.graph p in
  let ((comp, _) as sc) = Graph.scc g in
  let sizes = Graph.comp_sizes sc in
  let self_loop = ref false in
  Array.iteri
    (fun v c -> if sizes.(c) = 1 && Graph.has_self_loop g v then self_loop := true)
    comp;
  (List.filter (fun s -> s > 1) (Array.to_list sizes) |> List.sort compare, !self_loop)

(* The program's solution of [p], through the rendered text, as the
   oracle reads it. *)
let program_levels lat (p : Policy.t) =
  let lattice = Result.get_ok (Minup_lattice.Lattice_file.parse (Lat.render lat)) in
  let policy =
    Result.get_ok
      (Minup_constraints.Parse.parse_resolve
         ~level_of_string:(Minup_lattice.Explicit.level_of_string lattice)
         (Policy.render lat p))
  in
  let problem =
    Solver.compile_exn ~lattice ~attrs:policy.Minup_constraints.Parse.attrs
      policy.Minup_constraints.Parse.csts
  in
  let sol = Solver.solve problem in
  Oracle.read_assignment lat ~n:p.Policy.n
    (Minup_core.Assignment_io.render
       ~level_to_string:(Minup_lattice.Explicit.level_to_string lattice)
       sol.Solver.assignment)
  |> Result.get_ok

let () =
  let rng = Random.State.make [| 7 |] in
  let lat = Lat.make Workloads.dims in
  (* Lattice arithmetic. *)
  check "lattice: lub of covers is componentwise max"
    (let a = Option.get (Lat.of_name lat "L0312") and b = Option.get (Lat.of_name lat "L1203") in
     Lat.name lat (Lat.lub lat a b) = "L1313" && Lat.leq lat a (Lat.lub lat a b));
  check "lattice: the program reads the rendered lattice with the same order"
    (let lattice = Result.get_ok (Minup_lattice.Lattice_file.parse (Lat.render lat)) in
     let module E = Minup_lattice.Explicit in
     E.cardinal lattice = Lat.size lat
     && List.for_all
          (fun _ ->
            let a = Random.State.int rng (Lat.size lat) and b = Random.State.int rng (Lat.size lat) in
            let ea = E.of_name_exn lattice (Lat.name lat a)
            and eb = E.of_name_exn lattice (Lat.name lat b) in
            E.name lattice (E.lub lattice ea eb) = Lat.name lat (Lat.lub lat a b)
            && E.leq lattice ea eb = Lat.leq lat a b)
          (List.init 2000 Fun.id));
  (* Generator shapes. *)
  let mixed = Policy.mixed rng lat ~n:8192 ~islands:8 ~island_size:64 in
  check "mixed: DAG part acyclic, exactly 8 islands of 64"
    (shape mixed = (List.init 8 (fun _ -> 64), false));
  let big = Policy.mixed rng lat ~n:131_072 ~islands:8 ~island_size:64 in
  check "mixed 128k: exactly 8 islands of 64"
    (shape big = (List.init 8 (fun _ -> 64), false));
  let acyclic = Policy.acyclic rng lat ~n:8192 in
  check "acyclic: no cycle" (shape acyclic = ([], false));
  let scc = Policy.single_scc rng lat ~n:512 ~chords:256 ~floors:4 in
  check "single_scc: one component of 512" (shape scc = ([ 512 ], false));
  check "single_scc: simple constraints only"
    (Array.for_all (fun c -> Array.length c.Policy.lhs = 1) scc.Policy.csts);
  (* The oracle accepts the program's answers ... *)
  let n = mixed.Policy.n in
  let levels = program_levels lat mixed in
  check "oracle: accepts the program's solution of a mixed policy"
    (Oracle.check_minimal_solution lat ~n mixed.Policy.csts levels = Ok ());
  let scc_levels = program_levels lat scc in
  let least = Oracle.least_simple lat scc in
  check "oracle: least solution of an SCC matches the program"
    (Oracle.check_least lat least scc_levels = Ok ());
  check "oracle: least solution of an SCC is one level"
    (Array.for_all (fun l -> l = least.(0)) least);
  (* ... and rejects planted wrong ones. *)
  let planted levels a v =
    let l = Array.copy levels in
    l.(a) <- v;
    l
  in
  let raised = ref 0 and lowered = ref 0 in
  (* Every 8th attribute lowered, every 32nd raised: each planted
     assignment is checked in full. *)
  for a = 0 to n - 1 do
    if a mod 8 = 0 then begin
      match Lat.lower_covers lat levels.(a) with
      | l' :: _ ->
          incr lowered;
          if not (is_error (Oracle.check_minimal_solution lat ~n mixed.Policy.csts
                              (planted levels a l')))
          then check (Printf.sprintf "oracle: rejects A%d lowered by a cover" a) false
      | [] -> ()
    end;
    if a mod 32 = 0 then
      match Lat.upper_covers lat levels.(a) with
      | u :: _ ->
          incr raised;
          if not (is_error (Oracle.check_minimal_solution lat ~n mixed.Policy.csts
                              (planted levels a u)))
          then check (Printf.sprintf "oracle: rejects A%d raised by a cover" a) false
      | [] -> ()
  done;
  check (Printf.sprintf "oracle: rejected %d attributes lowered by a cover" !lowered) (!lowered > 0);
  check (Printf.sprintf "oracle: rejected %d attributes raised above their minimum" !raised)
    (!raised > 0);
  let a = Random.State.int rng 512 in
  check "oracle: least-solution check rejects one level moved by a cover"
    (match Lat.upper_covers lat scc_levels.(a) @ Lat.lower_covers lat scc_levels.(a) with
    | v :: _ -> is_error (Oracle.check_least lat least (planted scc_levels a v))
    | [] -> false);
  if !failures > 0 then exit 1
