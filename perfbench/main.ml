(* perfbench — the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (solve-mixed-128k, batch-scc, serve-edits-8k) and
   prints, as the last line of standard output, one JSON object with the
   keys correct, attempted, failed and metrics: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  A traced run
   also writes its spans and a per-layer summary under perfbench/out/.
   Exits 2 on a usage error. *)

open Perfbench_lib

let workloads =
  [
    ("solve-mixed-128k", Workloads.solve_mixed);
    ("batch-scc", Workloads.batch_scc);
    ("serve-edits-8k", Workloads.serve_edits);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (solve-mixed-128k|batch-scc|serve-edits-8k) \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem_assoc workload workloads) then usage ();
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "seed", float seconds, trace = 1)

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let end_to_end (o : Workloads.outcome) =
  let ms = List.map (fun s -> s *. 1e3) o.latencies in
  [
    ("latency_ms.p50", Spans.median ms, "ms");
    ("latency_ms.p90", percentile 0.9 ms, "ms");
    ("throughput_per_s", float (List.length ms) /. o.loop_s, "1/s");
    ("setup_s", Spans.median o.setups, "s");
    ("peak_heap_mb", Spans.median o.heaps *. float (Sys.word_size / 8) /. 1048576., "MB");
  ]

(* Per-layer metrics: median self time (ms) and self minor words
   (millions) per operation from the spans, by span name. *)
let span_metrics =
  [
    ("parse.parse", true);
    ("parse.resolve", true);
    ("problem.compile", true);
    ("priorities.compute", true);
    ("solver.solve", true);
    ("solver.satisfies", false);
    ("engine.solve_batch", false);
    ("assignment_io.render", false);
    ("wire.encode", false);
    ("session.edit", false);
    ("session.resolve", true);
    ("json.parse", false);
    ("serve.open", false);
  ]

(* Metrics computed directly by the workloads, with their units. *)
let direct_metrics =
  [
    ("solver.lattice_ops", "count");
    ("solver.try_iterations", "count");
    ("engine.speedup", "x");
    ("engine.minor_gcs", "count");
    ("wire.response_kb", "KB");
    ("session.path_full", "%");
    ("session.path_incremental", "%");
    ("session.path_patched", "%");
    ("trace.overhead_x", "x");
    ("trace.mb", "MB");
  ]

(* A layer the workload never calls reads 0. *)
let per_layer (o : Workloads.outcome) summary =
  let find name = List.assoc_opt name summary in
  List.concat_map
    (fun (name, with_words) ->
      let ms, mw = match find name with Some (ms, mw, _) -> (ms, mw) | None -> (0., 0.) in
      ((name ^ "_ms", ms, "ms") :: (if with_words then [ (name ^ "_mwords", mw, "Mword") ] else [])))
    span_metrics
  @ List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0. (List.assoc_opt name o.layer), unit))
      direct_metrics

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Every digit of a measured value; a value that could not be measured
   (no operation completed) prints as 0 to keep the line valid JSON. *)
let json_number x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let write_summary path ~workload ~seed summary metrics =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\"workload\":%S,\"seed\":%d,\n \"spans\":{\n" workload seed;
      List.iteri
        (fun i (name, (ms, mw, ops)) ->
          Printf.fprintf oc "  %S:{\"self_ms_median\":%s,\"self_mwords_median\":%s,\"ops\":%d}%s\n"
            name (json_number ms) (json_number mw) ops
            (if i = List.length summary - 1 then "" else ","))
        summary;
      Printf.fprintf oc " },\n \"metrics\":{\n";
      List.iteri
        (fun i (name, v, unit) ->
          Printf.fprintf oc "  %S:{\"value\":%s,\"unit\":%S}%s\n" name (json_number v) unit
            (if i = List.length metrics - 1 then "" else ","))
        metrics;
      Printf.fprintf oc " }\n}\n")

let () =
  let workload, seed, seconds, traced = parse_args Sys.argv in
  let out_dir =
    Filename.concat "perfbench"
      (Filename.concat "out" (Printf.sprintf "%s-%d%s" workload seed (if traced then "-trace" else "")))
  in
  mkdir_p out_dir;
  Workloads.traced := traced;
  let cfg = { Workloads.seed; seconds; traced; out_dir } in
  let o = (List.assoc workload workloads) cfg in
  let metrics =
    if not traced then end_to_end o
    else begin
      let summary = Spans.summary () in
      let m = per_layer o summary in
      Spans.write_spans (Filename.concat out_dir "spans.jsonl");
      write_summary (Filename.concat out_dir "summary.json") ~workload ~seed summary m;
      m
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    o.correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))
