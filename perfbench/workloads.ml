(* The three workloads.  Each drives the program's public functions in the
   order the corresponding [mlsclassify] command calls them, on inputs the
   benchmark generated from its seed and rendered to .lat/.cst/NDJSON
   text, in a closed loop of one client.  Every output is checked by
   {!Perfbench_lib.Oracle}. *)

open Perfbench_lib
open Minup_lattice
module Solver = Minup_core.Solver.Make (Explicit)
module Engine = Minup_core.Engine.Make (Explicit)
module Session = Minup_session.Session.Make (Explicit)
module Serve = Minup_session.Serve
module Parse = Minup_constraints.Parse
module Problem = Minup_constraints.Problem
module Priorities = Minup_constraints.Priorities
module Cst = Minup_constraints.Cst
module Instr = Minup_core.Instr
module Wire = Minup_core.Wire
module Json = Minup_obs.Json
module Trace = Minup_obs.Trace
module Assignment_io = Minup_core.Assignment_io

(* Every workload runs over the same 256-level lattice: four chains of
   four levels, height 12. *)
let dims = [| 4; 4; 4; 4 |]

type config = { seed : int; seconds : float; traced : bool; out_dir : string }

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  latencies : float list;  (** seconds per operation, timed loop only *)
  loop_s : float;  (** the timed loop's wall time, less {!untimed} work *)
  heaps : float list;  (** heap peak per operation (words), timed loop only *)
  setups : float list;  (** seconds per set-up repetition *)
  layer : (string * float) list;  (** traced-run metrics computed directly *)
}

exception Op_failed of string

let traced = ref false

(* The largest major heap, in words, seen at a layer boundary of the
   current operation. *)
let op_heap = ref 0

let sample_heap () =
  let w = (Gc.quick_stat ()).Gc.heap_words in
  if w > !op_heap then op_heap := w

(* A call into a layer: a span in a traced run, and a heap sample. *)
let span name f =
  let r = if !traced then Spans.with_span name f else f () in
  sample_heap ();
  r

let ok_or_fail what = function
  | Ok x -> x
  | Error msg -> raise (Op_failed (what ^ ": " ^ msg))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let time f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () -. t0)

(* Time the timed loop spends on the benchmark's own work (oracle checks
   and the [Gc.compact] before a one-shot operation), which throughput
   does not count. *)
let excluded = ref 0.

let untimed f =
  let r, dt = time f in
  excluded := !excluded +. dt;
  r

(* Bookkeeping shared by the workloads: operations attempted and failed,
   and the first oracle rejection. *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : string option }

let tally () = { attempted = 0; failed = 0; wrong = None }

let judge t = function
  | Ok () -> ()
  | Error msg -> if t.wrong = None then t.wrong <- Some msg

(* Run [op i] for [i = 0, 1, ...] until [seconds] have passed and [i] is
   a whole number of [round]s (at least one round).  [op] returns its own
   latency, or raises [Op_failed].  Returns the latencies, each
   operation's heap peak in words, and the loop's wall time less its
   {!untimed} work. *)
let closed_loop t ~seconds ~round op =
  let start = Spans.now () in
  let stop = start +. seconds in
  excluded := 0.;
  let lat = ref [] and heaps = ref [] and i = ref 0 in
  let continue = ref true in
  while !continue do
    t.attempted <- t.attempted + 1;
    op_heap := 0;
    (match op !i with
    | dt ->
        lat := dt :: !lat;
        heaps := float !op_heap :: !heaps
    | exception Op_failed msg ->
        t.failed <- t.failed + 1;
        prerr_endline ("operation failed: " ^ msg));
    incr i;
    continue := Spans.now () < stop || !i mod round <> 0
  done;
  (List.rev !lat, List.rev !heaps, Spans.now () -. start -. !excluded)

let finish t ~loop:(latencies, heaps, loop_s) ~setups ~layer =
  (match t.wrong with Some msg -> prerr_endline ("WRONG: " ^ msg) | None -> ());
  {
    attempted = t.attempted;
    failed = t.failed;
    correct = t.wrong = None;
    latencies;
    loop_s;
    heaps;
    setups;
    layer;
  }

(* [Solver.compile], with its two halves also timed on their own in a
   traced run: the library builds its problem from both in one call, so
   the traced run calls each half once more inside the compile span. *)
let compile ~lattice ~attrs csts =
  span "solver.compile" @@ fun () ->
  if !traced then begin
    let prob =
      span "problem.compile" (fun () -> Problem.compile_exn ~attrs csts)
    in
    ignore (span "priorities.compute" (fun () -> Priorities.compute prob))
  end;
  match Solver.compile ~lattice ~attrs csts with
  | Ok p -> p
  | Error e -> raise (Op_failed (Format.asprintf "%a" Problem.pp_error e))

let load_lattice path =
  let text = span "read" (fun () -> read_file path) in
  span "lattice_file.parse" (fun () ->
      match Lattice_file.parse text with
      | Ok l -> l
      | Error e -> raise (Op_failed (Format.asprintf "%a" Lattice_file.pp_error e)))

let load_policy lattice path =
  let text = span "read" (fun () -> read_file path) in
  let ast =
    span "parse.parse" (fun () -> Parse.parse text)
    |> Result.map_error (Format.asprintf "%a" Parse.pp_error)
    |> ok_or_fail "parse"
  in
  span "parse.resolve" (fun () ->
      Parse.resolve ~level_of_string:(Explicit.level_of_string lattice) ast)
  |> Result.map_error (Format.asprintf "%a" Parse.pp_error)
  |> ok_or_fail "resolve"

let median = Spans.median

(* Traced runs: one operation with the program's own tracer on, against
   the mean of the same operation just before and just after with it off
   (the benchmark's spans are off for all three). *)
let trace_overhead op =
  traced := false;
  let off1 = op () in
  Trace.start ();
  let on = op () in
  Trace.stop ();
  let bytes = String.length (Json.to_string (Trace.to_json ())) in
  Trace.start ();
  Trace.stop ();
  let off2 = op () in
  traced := true;
  [ ("trace.overhead_x", on /. ((off1 +. off2) /. 2.)); ("trace.mb", float bytes /. 1e6) ]

(* Set-up is repeated [reps] times per run and its median reported; each
   repetition gets its own (negative) operation id. *)
let repeat_setup reps f =
  List.init reps (fun r ->
      Spans.set_op (-1 - r);
      f ())

let timed_loop ?(round = 1) t cfg op =
  closed_loop t ~seconds:cfg.seconds ~round (fun i ->
      Spans.set_op i;
      op i)

(* --- solve-mixed-128k ------------------------------------------------ *)

let solve_mixed cfg =
  let rng = Random.State.make [| cfg.seed; 1 |] in
  let lat = Lat.make dims in
  let n = 131_072 in
  let pol = Policy.mixed rng lat ~n ~islands:8 ~island_size:64 in
  let lat_path = Filename.concat cfg.out_dir "lattice.lat" in
  let cst_path = Filename.concat cfg.out_dir "policy.cst" in
  write_file lat_path (Lat.render lat);
  write_file cst_path (Policy.render lat pol);
  let t = tally () in
  let stats = ref [] in
  (* read → Lattice_file.parse → Parse.parse → Parse.resolve →
     Solver.compile → Solver.solve → Solver.satisfies →
     Assignment_io.render, as [mlsclassify solve] does. *)
  let pipeline () =
    let lattice = load_lattice lat_path in
    let policy = load_policy lattice cst_path in
    let problem = compile ~lattice ~attrs:policy.Parse.attrs policy.Parse.csts in
    let sol = span "solver.solve" (fun () -> Solver.solve problem) in
    if not (span "solver.satisfies" (fun () -> Solver.satisfies problem sol.Solver.levels))
    then raise (Op_failed "solution does not satisfy the constraints");
    let text =
      span "assignment_io.render" (fun () ->
          Assignment_io.render ~level_to_string:(Explicit.level_to_string lattice) sol.Solver.assignment)
    in
    (text, sol.Solver.stats)
  in
  (* One-shot operations each start from a compacted heap, as a fresh
     process would. *)
  let op _ =
    untimed Gc.compact;
    let (text, st), dt = time (fun () -> span "op" pipeline) in
    stats := st :: !stats;
    untimed (fun () ->
        judge t
          (Result.bind (Oracle.read_assignment lat ~n text) (fun levels ->
               Oracle.check_minimal_solution lat ~n pol.Policy.csts levels)));
    dt
  in
  let setups = repeat_setup 5 op in
  let loop = timed_loop t cfg op in
  let layer =
    if not cfg.traced then []
    else begin
      let st = List.hd !stats in
      let over = trace_overhead (fun () -> op ()) in
      [
        ("solver.lattice_ops", float (Instr.lattice_ops st));
        ("solver.try_iterations", float st.Instr.try_iterations);
      ]
      @ over
    end
  in
  finish t ~loop ~setups ~layer

(* --- batch-scc ------------------------------------------------------- *)

let batch_scc cfg =
  let rng = Random.State.make [| cfg.seed; 2 |] in
  let lat = Lat.make dims in
  let n = 512 and k = 32 in
  let pols =
    Array.init k (fun _ -> Policy.single_scc rng lat ~n ~chords:(n / 2) ~floors:4)
  in
  let expected = Array.map (Oracle.least_simple lat) pols in
  let lat_path = Filename.concat cfg.out_dir "lattice.lat" in
  write_file lat_path (Lat.render lat);
  let paths =
    Array.mapi
      (fun i p ->
        let path = Filename.concat cfg.out_dir (Printf.sprintf "policy%02d.cst" i) in
        write_file path (Policy.render lat p);
        path)
      pols
  in
  let t = tally () in
  let gcs = ref [] and speedups = ref [] and stats = ref [] in
  (* As [mlsclassify batch --jobs 2]: load and compile every policy in
     turn, solve them all on the domain pool, then check and render. *)
  let pipeline () =
    let lattice = load_lattice lat_path in
    let problems =
      Array.map
        (fun path ->
          let policy = load_policy lattice path in
          compile ~lattice ~attrs:policy.Parse.attrs policy.Parse.csts)
        paths
    in
    let seq =
      if not !traced then 0.
      else
        Array.fold_left
          (fun acc p -> acc +. snd (time (fun () -> span "solver.solve" (fun () -> Solver.solve p))))
          0. problems
    in
    let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
    let report, dt =
      time (fun () -> span "engine.solve_batch" (fun () -> Engine.solve_batch ~jobs:2 problems))
    in
    if !traced then begin
      gcs := float ((Gc.quick_stat ()).Gc.minor_collections - gc0) :: !gcs;
      speedups := (seq /. dt) :: !speedups;
      stats := report.Engine.stats :: !stats
    end;
    if report.Engine.failed > 0 then
      raise (Op_failed (Printf.sprintf "%d batch tasks failed" report.Engine.failed));
    Array.mapi
      (fun i (sol : Solver.solution) ->
        if
          not
            (span "solver.satisfies" (fun () ->
                 Solver.satisfies problems.(i) sol.Solver.levels))
        then raise (Op_failed "solution does not satisfy the constraints");
        span "assignment_io.render" (fun () ->
            Assignment_io.render ~level_to_string:(Explicit.level_to_string lattice) sol.Solver.assignment))
      (Engine.ok_exn report)
  in
  let op _ =
    untimed Gc.compact;
    let texts, dt = time (fun () -> span "op" pipeline) in
    untimed (fun () ->
        Array.iteri
          (fun i text ->
            judge t
              (Result.bind (Oracle.read_assignment lat ~n text) (fun levels ->
                   Oracle.check_least lat expected.(i) levels)))
          texts);
    dt
  in
  let setups = repeat_setup 7 op in
  gcs := [];
  speedups := [];
  stats := [];
  let loop = timed_loop t cfg op in
  let layer =
    if not cfg.traced then []
    else begin
      let st = List.hd !stats in
      let over = trace_overhead (fun () -> op ()) in
      [
        ("solver.lattice_ops", float (Instr.lattice_ops st));
        ("solver.try_iterations", float st.Instr.try_iterations);
        ("engine.speedup", median !speedups);
        ("engine.minor_gcs", median !gcs);
      ]
      @ over
    end
  in
  finish t ~loop ~setups ~layer

(* --- serve-edits-8k -------------------------------------------------- *)

let json_string s =
  let buf = Buffer.create (String.length s + 16) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* The benchmark's mirror of the session: live constraints by id, and
   lower bounds by attribute. *)
type mirror = {
  live : (int, Policy.cst) Hashtbl.t;
  mutable ids : int array;  (** live ids, [0 .. n_ids-1], for seeded picks *)
  mutable n_ids : int;
  mutable next_id : int;
  bounds : (int, int) Hashtbl.t;
}

let mirror_csts m =
  let acc = ref [] in
  Hashtbl.iter (fun a l -> acc := { Policy.lhs = [| a |]; rhs = Policy.Level l } :: !acc) m.bounds;
  Hashtbl.iter (fun _ c -> acc := c :: !acc) m.live;
  Array.of_list !acc

let mirror_add m c =
  Hashtbl.replace m.live m.next_id c;
  if m.n_ids = Array.length m.ids then begin
    let bigger = Array.make (2 * m.n_ids + 16) 0 in
    Array.blit m.ids 0 bigger 0 m.n_ids;
    m.ids <- bigger
  end;
  m.ids.(m.n_ids) <- m.next_id;
  m.n_ids <- m.n_ids + 1;
  m.next_id <- m.next_id + 1

type edit = Bound of int * int | Add of Policy.cst | Remove of int

(* Attributes whose bounds the serve loop re-tightens. *)
let bound_pool = 32

let apply_edit m = function
  | Bound (a, l) -> Hashtbl.replace m.bounds a l
  | Add c -> mirror_add m c
  | Remove id ->
      let j = ref 0 in
      while m.ids.(!j) <> id do incr j done;
      m.n_ids <- m.n_ids - 1;
      m.ids.(!j) <- m.ids.(m.n_ids);
      Hashtbl.remove m.live id

(* The edit kinds come in rounds of three, one of each kind in a seeded
   order, so that every whole number of rounds holds exactly a third of
   each. *)
type edits = { rng : Random.State.t; mutable drawn : int; order : int array }

let edits seed = { rng = Random.State.make [| seed; 4 |]; drawn = 0; order = [| 0; 1; 2 |] }

(* The next edit: [set_lower_bound] on an attribute of [pool],
   [add_constraint] (keeping the policy acyclic), or [remove_constraint]
   of a live id; applied to the mirror as it is drawn. *)
let next_edit ed lat ~n ~pool m =
  let rng = ed.rng in
  if ed.drawn mod 3 = 0 then
    for i = 2 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = ed.order.(i) in
      ed.order.(i) <- ed.order.(j);
      ed.order.(j) <- x
    done;
  let kind = ed.order.(ed.drawn mod 3) in
  ed.drawn <- ed.drawn + 1;
  let e =
    match kind with
    | 0 ->
        let a = pool.(Random.State.int rng (Array.length pool)) in
        Bound (a, Policy.some_level rng lat)
    | 1 ->
        if Random.State.bool rng then
          let src = Random.State.int rng (n - 1) in
          let dst = src + 1 + Random.State.int rng (n - src - 1) in
          Add { Policy.lhs = [| src |]; rhs = Policy.Attr dst }
        else
          let dst = 4 + Random.State.int rng (n - 4) in
          let k = 2 + Random.State.int rng 3 in
          Add { Policy.lhs = Policy.distinct rng k 0 dst; rhs = Policy.Attr dst }
    | _ -> Remove m.ids.(Random.State.int rng m.n_ids)
  in
  apply_edit m e;
  e

let edit_line lat = function
  | Bound (a, l) ->
      Printf.sprintf {|{"op":"set_lower_bound","problem":"p","attr":"%s","level":"%s"}|}
        (Policy.attr_name a) (Lat.name lat l)
  | Add c ->
      Printf.sprintf {|{"op":"add_constraint","problem":"p","constraint":%s}|}
        (json_string (Policy.cst_line lat c))
  | Remove id -> Printf.sprintf {|{"op":"remove_constraint","problem":"p","id":%d}|} id

let resolve_line = {|{"op":"resolve","problem":"p"}|}
let encode resp = Json.to_string (Wire.to_json resp)

let serve_edits cfg =
  let rng = Random.State.make [| cfg.seed; 3 |] in
  let lat = Lat.make dims in
  let n = 8192 in
  let pol = Policy.acyclic rng lat ~n in
  let lat_text = Lat.render lat and cst_text = Policy.render lat pol in
  let open_line =
    Printf.sprintf {|{"op":"open","problem":"p","lattice":%s,"constraints":%s}|}
      (json_string lat_text) (json_string cst_text)
  in
  let t = tally () in
  let check m text =
    judge t
      (Result.bind (Oracle.read_envelope lat ~n text) (fun levels ->
           Oracle.check_minimal_solution lat ~n (mirror_csts m) levels))
  in
  (* Set-up: a fresh connection, the [open], and the first [resolve]. *)
  let setup () =
    let conn = Serve.create () in
    let resolved, dt =
      time (fun () ->
          let opened = span "serve.open" (fun () -> Serve.handle_line conn open_line) in
          if Wire.status opened <> "ok" then raise (Op_failed ("open: " ^ encode opened));
          encode (span "serve.resolve" (fun () -> Serve.handle_line conn resolve_line)))
    in
    (conn, resolved, dt)
  in
  let runs = repeat_setup 5 setup in
  let m =
    { live = Hashtbl.create 16384; ids = [||]; n_ids = 0; next_id = 0; bounds = Hashtbl.create 64 }
  in
  Array.iter (mirror_add m) pol.Policy.csts;
  List.iter (fun (_, resolved, _) -> check m resolved) runs;
  let conn, _, _ = List.hd (List.rev runs) in
  let setups = List.map (fun (_, _, dt) -> dt) runs in
  let lattice = Result.get_ok (Lattice_file.parse lat_text) in
  (* The traced run replays every edit on a session of its own. *)
  let replay =
    if not cfg.traced then None
    else begin
      Spans.set_op (-1);
      let ast = Result.get_ok (span "parse.parse" (fun () -> Parse.parse cst_text)) in
      let policy =
        Result.get_ok
          (span "parse.resolve" (fun () ->
               Parse.resolve ~level_of_string:(Explicit.level_of_string lattice) ast))
      in
      let s = Session.create ~lattice ~attrs:policy.Parse.attrs policy.Parse.csts in
      ignore (Session.resolve s);
      Some s
    end
  in
  let to_cst (c : Policy.cst) =
    Cst.make_exn
      ~lhs:(Array.to_list (Array.map Policy.attr_name c.Policy.lhs))
      ~rhs:
        (match c.Policy.rhs with
        | Policy.Attr b -> Cst.Attr (Policy.attr_name b)
        | Policy.Level l -> Cst.Level (Explicit.of_name_exn lattice (Lat.name lat l)))
  in
  let replay_edit e =
    match (replay, e) with
    | None, _ -> ()
    | Some s, Bound (a, l) ->
        Session.set_lower_bound s (Policy.attr_name a)
          (Some (Explicit.of_name_exn lattice (Lat.name lat l)))
    | Some s, Add c -> ignore (Session.add_constraint s (to_cst c))
    | Some s, Remove id -> ignore (Session.remove_constraint s id)
  in
  (* Before the timed loop, untimed: bounds on a seeded pool of attributes
     and one resolve, so that every [set_lower_bound] of the loop
     re-tightens a live bound (the session's patch path). *)
  let ed = edits cfg.seed in
  let pool = Policy.distinct ed.rng bound_pool 0 n in
  Array.iter
    (fun a ->
      let e = Bound (a, Policy.some_level ed.rng lat) in
      ignore (Serve.handle_line conn (edit_line lat e));
      apply_edit m e;
      replay_edit e)
    pool;
  check m (encode (Serve.handle_line conn resolve_line));
  Option.iter (fun s -> ignore (Session.resolve s)) replay;
  let sizes = ref [] and stats = ref [] in
  (* One operation: one edit line, then one resolve line, each answer
     encoded as [serve] writes it. *)
  let op _ =
    let e = next_edit ed lat ~n ~pool m in
    let line = edit_line lat e in
    if !traced then
      span "json.parse" (fun () ->
          ignore (Json.parse line);
          ignore (Json.parse resolve_line));
    let (ack, answer), dt =
      time (fun () ->
          span "op" @@ fun () ->
          let ack = span "serve.edit" (fun () -> Serve.handle_line conn line) in
          let answer = span "serve.resolve" (fun () -> Serve.handle_line conn resolve_line) in
          span "wire.encode" (fun () -> (encode ack, encode answer)))
    in
    let acked =
      Oracle.contains ack {|"status":"ok"|}
      &&
      match e with
      | Add _ -> Oracle.contains ack (Printf.sprintf {|"id":%d|} (m.next_id - 1))
      | Remove id -> Oracle.contains ack (Printf.sprintf {|"id":%d|} id)
      | Bound _ -> true
    in
    if not acked then raise (Op_failed ("edit not acknowledged: " ^ ack));
    untimed (fun () -> check m answer);
    sizes := float (String.length answer) :: !sizes;
    (match replay with
    | None -> ()
    | Some s ->
        span "session.edit" (fun () -> replay_edit e);
        let sol = span "session.resolve" (fun () -> Session.resolve s) in
        (* The layers below the session, called on its current problem. *)
        let attrs, csts = Session.snapshot s in
        let problem = compile ~lattice ~attrs csts in
        let scratch = span "solver.solve" (fun () -> Solver.solve problem) in
        stats := scratch.Solver.stats :: !stats;
        if not (span "solver.satisfies" (fun () -> Solver.satisfies problem scratch.Solver.levels))
        then raise (Op_failed "replayed solution does not satisfy");
        if scratch.Solver.levels <> sol.Session.Solver.levels then
          raise (Op_failed "session resolve differs from a scratch solve"));
    dt
  in
  let loop = timed_loop ~round:3 t cfg op in
  let layer =
    match replay with
    | None -> []
    | Some s ->
        let st = Session.stats s in
        let share k = 100. *. float k /. float st.Session.resolves in
        let over = trace_overhead (fun () -> op ()) in
        [
          ("solver.lattice_ops", median (List.map (fun st -> float (Instr.lattice_ops st)) !stats));
          ("solver.try_iterations", median (List.map (fun st -> float st.Instr.try_iterations) !stats));
          ("wire.response_kb", median !sizes /. 1024.);
          ("session.path_full", share st.Session.full);
          ("session.path_incremental", share st.Session.incremental);
          ("session.path_patched", share st.Session.patched);
        ]
        @ over
  in
  finish t ~loop ~setups ~layer
