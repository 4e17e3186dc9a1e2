(* The probe wraps an allocator instance's [malloc]/[free]/[maintenance]
   closures. Untraced, it counts the calls and reads the calling logical
   thread's simulated clock around each one (the per-call simulated
   latency). Traced, it also records a host span per call, the minor
   words the call allocated, and each call's size class. Nothing inside
   the program is instrumented. *)

open Alloc_api

(* Growable flat float buffer. *)
type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 1024 0.0; n = 0 }

let grow b =
  let a = Array.make (2 * Array.length b.a) 0.0 in
  Array.blit b.a 0 a 0 b.n;
  b.a <- a

let[@inline] push b x =
  if b.n = Array.length b.a then grow b;
  Array.unsafe_set b.a b.n x;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

type t = {
  spans : Spans.t option;
  mutable calls : int;
  mutable live : int;
  sim_malloc : buf;
  sim_free : buf;
  host_small : buf;
  host_large : buf;
  host_free : buf;
  mutable words_small : float;
  mutable words_large : float;
  mutable words_free : float;
  mutable large_ops : int;
  large_dests : (int, unit) Hashtbl.t;
  mutable polls : int;
  mutable useful : int;
}

let create spans =
  {
    spans;
    calls = 0;
    live = 0;
    sim_malloc = buf ();
    sim_free = buf ();
    host_small = buf ();
    host_large = buf ();
    host_free = buf ();
    words_small = 0.0;
    words_large = 0.0;
    words_free = 0.0;
    large_ops = 0;
    large_dests = Hashtbl.create 64;
    polls = 0;
    useful = 0;
  }

(* A call that raises (an injected crash) still closes its span. *)
let abandon sp e =
  ignore (Spans.leave sp : int);
  raise e

let wrap p (inst : Instance.t) =
  let clocks = inst.Instance.clocks in
  let malloc0 = inst.Instance.malloc and free0 = inst.Instance.free in
  (* A probe may see several stacks in turn (one per crash plan); calls
     and latencies accumulate, the live-object count is per stack. *)
  p.live <- 0;
  Hashtbl.reset p.large_dests;
  match p.spans with
  | None ->
      {
        inst with
        Instance.malloc =
          (fun ~tid ~size ~dest ->
            let c = clocks.(tid) in
            let t0 = Sim.Clock.now c in
            let addr = malloc0 ~tid ~size ~dest in
            push p.sim_malloc (Sim.Clock.now c -. t0);
            p.calls <- p.calls + 1;
            p.live <- p.live + 1;
            addr);
        free =
          (fun ~tid ~dest ->
            let c = clocks.(tid) in
            let t0 = Sim.Clock.now c in
            free0 ~tid ~dest;
            push p.sim_free (Sim.Clock.now c -. t0);
            p.calls <- p.calls + 1;
            p.live <- p.live - 1);
      }
  | Some sp ->
      {
        inst with
        Instance.malloc =
          (fun ~tid ~size ~dest ->
            let large = size > Nvalloc_core.Size_class.max_small in
            let c = clocks.(tid) in
            let t0 = Sim.Clock.now c in
            Spans.enter sp (if large then Spans.malloc_large else Spans.malloc_small);
            let w0 = Gc.minor_words () in
            let addr = match malloc0 ~tid ~size ~dest with a -> a | exception e -> abandon sp e in
            let w = Gc.minor_words () -. w0 in
            let ns = float_of_int (Spans.leave sp) in
            push p.sim_malloc (Sim.Clock.now c -. t0);
            p.calls <- p.calls + 1;
            p.live <- p.live + 1;
            if large then begin
              push p.host_large ns;
              p.words_large <- p.words_large +. w;
              p.large_ops <- p.large_ops + 1;
              Hashtbl.replace p.large_dests dest ()
            end
            else begin
              push p.host_small ns;
              p.words_small <- p.words_small +. w
            end;
            addr);
        free =
          (fun ~tid ~dest ->
            let c = clocks.(tid) in
            let t0 = Sim.Clock.now c in
            Spans.enter sp Spans.free;
            let w0 = Gc.minor_words () in
            (match free0 ~tid ~dest with () -> () | exception e -> abandon sp e);
            let w = Gc.minor_words () -. w0 in
            let ns = float_of_int (Spans.leave sp) in
            push p.sim_free (Sim.Clock.now c -. t0);
            p.calls <- p.calls + 1;
            p.live <- p.live - 1;
            push p.host_free ns;
            p.words_free <- p.words_free +. w;
            if Hashtbl.mem p.large_dests dest then begin
              Hashtbl.remove p.large_dests dest;
              p.large_ops <- p.large_ops + 1
            end);
        maintenance =
          Option.map
            (fun tick clock ->
              Spans.enter sp Spans.maint;
              let ran = match tick clock with r -> r | exception e -> abandon sp e in
              ignore (Spans.leave sp : int);
              p.polls <- p.polls + 1;
              if ran then p.useful <- p.useful + 1;
              ran)
            inst.Instance.maintenance;
      }
