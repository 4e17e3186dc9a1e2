(* Host-time spans around the benchmark's calls into the program's
   layers. Spans live in preallocated int arrays so recording one does
   not allocate on the OCaml heap (growth doubles the arrays between
   calls, never inside a measured call). Self time is computed online
   from the open-span stack: a span's duration minus the time its
   children covered. Spans on one host thread nest properly, so the
   covered time is the sum of the direct children's durations;
   [offline_self] recomputes it from the stored intervals as a check. *)

let round = 0
let make = 1
let run = 2
let malloc_small = 3
let malloc_large = 4
let free = 5
let maint = 6
let check = 7
let plan = 8
let plan_workload = 9
let recover = 10
let oracle = 11

let names =
  [|
    "round"; "harness.make"; "workloads.run"; "api.malloc_small"; "api.malloc_large";
    "api.free"; "maint.poll"; "check"; "fault.plan"; "fault.workload"; "nvalloc.recover";
    "fault.oracle";
  |]

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let max_depth = 16

(* Spans stored at most; later ones are counted in [dropped] but still
   feed the per-name totals. *)
let cap = 1 lsl 17

type t = {
  origin : int;
  mutable stored : int;
  mutable dropped : int;
  mutable s_name : int array;
  mutable s_start : int array;
  mutable s_stop : int array;
  mutable s_parent : int array;
  mutable s_round : int array;
  st_slot : int array;
  st_name : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
  mutable round_id : int;
  count : int array;
  dur : int array;
  self : int array;
}

let create () =
  let n = Array.length names in
  let init = min cap 4096 in
  {
    origin = now_ns ();
    stored = 0;
    dropped = 0;
    s_name = Array.make init 0;
    s_start = Array.make init 0;
    s_stop = Array.make init 0;
    s_parent = Array.make init 0;
    s_round = Array.make init 0;
    st_slot = Array.make max_depth 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    round_id = 0;
    count = Array.make n 0;
    dur = Array.make n 0;
    self = Array.make n 0;
  }

let grow t =
  let len = min cap (2 * Array.length t.s_name) in
  let g a =
    let b = Array.make len 0 in
    Array.blit a 0 b 0 t.stored;
    b
  in
  t.s_name <- g t.s_name;
  t.s_start <- g t.s_start;
  t.s_stop <- g t.s_stop;
  t.s_parent <- g t.s_parent;
  t.s_round <- g t.s_round

let enter t name =
  (* Grow before the clock is read, outside any measured window. *)
  if t.stored = Array.length t.s_name && t.stored < cap then grow t;
  let d = t.depth in
  if d >= max_depth then invalid_arg "Spans.enter: nesting too deep";
  let now = now_ns () in
  let slot =
    if t.stored < Array.length t.s_name then begin
      let i = t.stored in
      t.s_name.(i) <- name;
      t.s_start.(i) <- now - t.origin;
      t.s_stop.(i) <- -1;
      t.s_parent.(i) <- (if d > 0 then t.st_slot.(d - 1) else -1);
      t.s_round.(i) <- t.round_id;
      t.stored <- i + 1;
      i
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  t.st_slot.(d) <- slot;
  t.st_name.(d) <- name;
  t.st_start.(d) <- now;
  t.st_child.(d) <- 0;
  t.depth <- d + 1

(* Close the innermost span and return its duration in ns. *)
let leave t =
  let now = now_ns () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Spans.leave: no open span";
  t.depth <- d;
  let dur = now - t.st_start.(d) in
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let name = t.st_name.(d) in
  t.count.(name) <- t.count.(name) + 1;
  t.dur.(name) <- t.dur.(name) + dur;
  t.self.(name) <- t.self.(name) + dur - t.st_child.(d);
  let slot = t.st_slot.(d) in
  if slot >= 0 then t.s_stop.(slot) <- now - t.origin;
  dur

(* Start a new round: totals restart from zero; stored spans are kept. *)
let start_round t id =
  t.round_id <- id;
  Array.fill t.count 0 (Array.length t.count) 0;
  Array.fill t.dur 0 (Array.length t.dur) 0;
  Array.fill t.self 0 (Array.length t.self) 0

let count t name = t.count.(name)
let total_ns t name = float_of_int t.dur.(name)
let self_ns t name = float_of_int t.self.(name)
let dropped t = t.dropped

(* Self time per span name over the stored, closed spans of [round]:
   duration minus the union of the direct children's intervals,
   clipped to the parent. *)
let offline_self t ~round =
  let children = Hashtbl.create 64 in
  for i = t.stored - 1 downto 0 do
    let p = t.s_parent.(i) in
    if p >= 0 then Hashtbl.replace children p (i :: Option.value ~default:[] (Hashtbl.find_opt children p))
  done;
  let self = Array.make (Array.length names) 0 in
  for i = 0 to t.stored - 1 do
    if t.s_round.(i) = round && t.s_stop.(i) >= 0 then begin
      let lo = t.s_start.(i) and hi = t.s_stop.(i) in
      let kids =
        Option.value ~default:[] (Hashtbl.find_opt children i)
        |> List.map (fun c -> (max lo t.s_start.(c), min hi t.s_stop.(c)))
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + b - a, b) else (acc, reach))
          (0, lo) kids
      in
      let n = t.s_name.(i) in
      self.(n) <- self.(n) + (hi - lo - covered)
    end
  done;
  self

let write t oc =
  Printf.fprintf oc "# layerbench spans: id name start_ns stop_ns parent round (stored %d, dropped %d)\n"
    t.stored t.dropped;
  for i = 0 to t.stored - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i names.(t.s_name.(i)) t.s_start.(i) t.s_stop.(i)
      t.s_parent.(i) t.s_round.(i)
  done
