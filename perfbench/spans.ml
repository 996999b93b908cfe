(* Spans recorded by the benchmark around its calls into the program's
   layers: name, start, end, parent span and operation id, plus the minor
   words the calling domain allocated inside the span.  Spans stay in
   memory and are written out when the run ends.  A span's self time (and
   self allocation) is its own minus that of its children. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (** index of the enclosing span, or -1 *)
  op : int;  (** operation id, or -1 for set-up *)
  words0 : float;
  mutable words : float;
}

(* Seconds on the program's monotonic clock; only differences are
   meaningful. *)
let now () = Int64.to_float (Minup_obs.Clock.now_ns ()) *. 1e-9

let recorded : span array ref = ref [||]
let count = ref 0
let stack = ref []
let op = ref (-1)

let set_op i = op := i

let push s =
  if !count = Array.length !recorded then begin
    let bigger = Array.make (max 256 (2 * !count)) s in
    Array.blit !recorded 0 bigger 0 !count;
    recorded := bigger
  end;
  !recorded.(!count) <- s;
  incr count;
  !count - 1

let with_span name f =
  let parent = match !stack with i :: _ -> i | [] -> -1 in
  let words0 = Gc.minor_words () in
  let i =
    push { name; start = now (); stop = nan; parent; op = !op; words0; words = 0. }
  in
  stack := i :: !stack;
  Fun.protect
    ~finally:(fun () ->
      let s = !recorded.(i) in
      s.stop <- now ();
      s.words <- Gc.minor_words () -. s.words0;
      stack := List.tl !stack)
    f

let all () = Array.sub !recorded 0 !count

(* Self time (s) and self minor words of every span, by index. *)
let self spans =
  let t = Array.map (fun s -> s.stop -. s.start) spans in
  let w = Array.map (fun s -> s.words) spans in
  Array.iter
    (fun s ->
      if s.parent >= 0 then begin
        t.(s.parent) <- t.(s.parent) -. (s.stop -. s.start);
        w.(s.parent) <- w.(s.parent) -. s.words
      end)
    spans;
  (t, w)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Per span name, the median over operations of the per-operation sums of
   self time (ms) and self minor words (millions), and the number of
   operations the name occurs in. *)
let summary () =
  let spans = all () in
  let t, w = self spans in
  let per = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let key = (s.name, s.op) in
      let t0, w0 = Option.value ~default:(0., 0.) (Hashtbl.find_opt per key) in
      Hashtbl.replace per key (t0 +. t.(i), w0 +. w.(i)))
    spans;
  let by_name = Hashtbl.create 32 in
  Hashtbl.iter
    (fun (name, op) (ti, wi) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_name name) in
      Hashtbl.replace by_name name ((op, (ti, wi)) :: l))
    per;
  Hashtbl.fold
    (fun name l acc ->
      (* Set-up spans count only for names that occur in no operation. *)
      let in_ops = List.filter (fun (op, _) -> op >= 0) l in
      let l = List.map snd (if in_ops = [] then l else in_ops) in
      ( name,
        ( median (List.map (fun (ti, _) -> ti *. 1e3) l),
          median (List.map (fun (_, wi) -> wi /. 1e6) l),
          List.length l ) )
      :: acc)
    by_name []
  |> List.sort compare

let write_spans path =
  let spans = all () in
  let t0 = if Array.length spans = 0 then 0. else spans.(0).start in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Array.iteri
        (fun i s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start_ms\":%.4f,\"end_ms\":%.4f,\"parent\":%d,\"op\":%d,\"minor_words\":%.0f}\n"
            i s.name
            ((s.start -. t0) *. 1e3)
            ((s.stop -. t0) *. 1e3)
            s.parent s.op s.words)
        spans)
