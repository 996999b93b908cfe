(* Directed graphs in compressed sparse row form and their strongly
   connected components: the benchmark's own graph code, used to check the
   shape of generated policies and to compute least solutions. *)

type t = { n : int; off : int array; adj : int array }

let of_edges n (edges : (int * int) list) =
  let deg = Array.make (n + 1) 0 in
  List.iter (fun (a, _) -> deg.(a + 1) <- deg.(a + 1) + 1) edges;
  for i = 1 to n do
    deg.(i) <- deg.(i) + deg.(i - 1)
  done;
  let off = Array.copy deg in
  let fill = Array.sub deg 0 n in
  let adj = Array.make (List.length edges) 0 in
  List.iter
    (fun (a, b) ->
      adj.(fill.(a)) <- b;
      fill.(a) <- fill.(a) + 1)
    edges;
  { n; off; adj }

let succ g v f =
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f g.adj.(i)
  done

let has_self_loop g v =
  let r = ref false in
  succ g v (fun w -> if w = v then r := true);
  !r

(* Tarjan's algorithm without recursion.  Returns [(comp, k)]: [comp.(v)]
   is the component of [v], numbered [0 .. k-1] in the order Tarjan
   completes them, so every component reachable from component [c] has a
   number no greater than [c]. *)
let scc g =
  let n = g.n in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false and comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let call_v = Array.make n 0 and call_i = Array.make n 0 and csp = ref 0 in
  let next = ref 0 and k = ref 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let enter v =
        index.(v) <- !next;
        low.(v) <- !next;
        incr next;
        stack.(!sp) <- v;
        incr sp;
        on_stack.(v) <- true;
        call_v.(!csp) <- v;
        call_i.(!csp) <- g.off.(v);
        incr csp
      in
      enter root;
      while !csp > 0 do
        let top = !csp - 1 in
        let v = call_v.(top) in
        let i = call_i.(top) in
        if i < g.off.(v + 1) then begin
          call_i.(top) <- i + 1;
          let w = g.adj.(i) in
          if index.(w) < 0 then enter w
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
        end
        else begin
          decr csp;
          if !csp > 0 then begin
            let u = call_v.(!csp - 1) in
            low.(u) <- min low.(u) low.(v)
          end;
          if low.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- !k;
              if w = v then continue := false
            done;
            incr k
          end
        end
      done
    end
  done;
  (comp, !k)

(* Sizes of the components, indexed by component number. *)
let comp_sizes (comp, k) =
  let sizes = Array.make k 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
  sizes
