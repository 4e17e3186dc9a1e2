(* The four benchmark workloads. A round builds fresh allocator stacks
   (every round starts on an empty heap), drives them through the
   repository's workload generators, checks the outcome and returns the
   round's figures. Every round of one run replays the same inputs, so
   its simulated figures must be identical to every other round's. *)

open Alloc_api
module Plan = Fault.Plan

type scale = Full | Smoke

type round = {
  units : int;  (** checked units: allocator calls, or crash plans *)
  failed : int;  (** units a correctness check rejected *)
  rejects : string list;  (** what each rejection was, with what replays it *)
  calls : int;  (** [Instance.malloc] + [Instance.free] calls *)
  host_ns : float;  (** host time of the timed region *)
  words : float;  (** minor words allocated in the timed region *)
  promoted : float;
  majors : int;
  sim : (string * float) list;  (** end-to-end simulated figures *)
  counters : (string * float) list;  (** per-layer simulated counters *)
  host : (string * float) list;
      (** per-layer host figures; a layer a workload does not reach has none *)
}

(* How a round is observed. [Plain] is the untraced pass. [Traced] adds a
   host span around every call into a layer. [Blame] instead attaches a
   telemetry sink with blame-tree attribution to each NVAlloc stack, which
   splits simulated time by component; the sink allocates on every call,
   so it gets rounds of its own and never skews the spans. *)
type mode = Plain | Traced of Spans.t | Blame

let spans_of = function Traced sp -> Some sp | Plain | Blame -> None

type t = { plan_units : bool; round : mode -> round }

let names = [ "larson-small"; "dbms-large"; "fragbench-shift"; "crash-recover" ]
let mib = 1024.0 *. 1024.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let timed spans name f =
  match spans with
  | None -> f ()
  | Some sp ->
      Spans.enter sp name;
      let v =
        match f () with
        | v -> v
        | exception e ->
            ignore (Spans.leave sp : int);
            raise e
      in
      ignore (Spans.leave sp : int);
      v

(* Simulated behaviour is unchanged by a telemetry sink. *)
let build mode f =
  match mode with
  | Plain | Traced _ -> (timed (spans_of mode) Spans.make f, None)
  | Blame ->
      (* The event rings are not read; attribution is kept apart from them. *)
      Telemetry.request_capture ~ring_capacity:256 ();
      let inst = Fun.protect ~finally:Telemetry.cancel_capture f in
      let sinks = Telemetry.registered () in
      Telemetry.reset_registered ();
      let attr = match sinks with [ (_, s) ] -> Some (Telemetry.enable_attribution s) | _ -> None in
      (inst, attr)

(* Device counters, read before and after the measured phase. *)
type counters = {
  mutable flushes : float;
  mutable reflushes : float;
  mutable sequential : float;
  mutable fences_saved : float;
  mutable coalesced : float;
  mutable group_commits : float;
  mutable group_entries : float;
  mutable header_lines : float;
  mutable extent_lookups : float;
  mutable extents_coalesced : float;
  flush_ns : float array;  (** in [categories] order *)
}

let zero_counters () =
  {
    flushes = 0.0; reflushes = 0.0; sequential = 0.0; fences_saved = 0.0; coalesced = 0.0;
    group_commits = 0.0; group_entries = 0.0; header_lines = 0.0; extent_lookups = 0.0;
    extents_coalesced = 0.0; flush_ns = Array.make 4 0.0;
  }

let categories = Pmem.Stats.[ Meta; Wal; Log; Data ]

let read_counters (dev : Pmem.Device.t) =
  let s = Pmem.Device.stats dev in
  let open Pmem.Stats in
  {
    flushes = fi (flushes s);
    reflushes = fi (reflushes s);
    sequential = fi (sequential_flushes s);
    fences_saved = fi (fences_saved s);
    coalesced = fi (flushes_coalesced s);
    group_commits = fi (group_commits s);
    group_entries = fi (group_commit_entries s);
    header_lines = fi (header_flush_lines s);
    extent_lookups = fi (extent_tree_lookups s);
    extents_coalesced = fi (extents_coalesced s);
    flush_ns = Array.of_list (List.map (flush_time s) categories);
  }

(* [acc += b - a] *)
let add_delta acc a b =
  acc.flushes <- acc.flushes +. b.flushes -. a.flushes;
  acc.reflushes <- acc.reflushes +. b.reflushes -. a.reflushes;
  acc.sequential <- acc.sequential +. b.sequential -. a.sequential;
  acc.fences_saved <- acc.fences_saved +. b.fences_saved -. a.fences_saved;
  acc.coalesced <- acc.coalesced +. b.coalesced -. a.coalesced;
  acc.group_commits <- acc.group_commits +. b.group_commits -. a.group_commits;
  acc.group_entries <- acc.group_entries +. b.group_entries -. a.group_entries;
  acc.header_lines <- acc.header_lines +. b.header_lines -. a.header_lines;
  acc.extent_lookups <- acc.extent_lookups +. b.extent_lookups -. a.extent_lookups;
  acc.extents_coalesced <- acc.extents_coalesced +. b.extents_coalesced -. a.extents_coalesced;
  Array.iteri (fun i x -> acc.flush_ns.(i) <- acc.flush_ns.(i) +. x -. a.flush_ns.(i)) b.flush_ns

let layer_counters d ~calls ~large_ops ~metadata_per_live =
  let per_op x = ratio x (fi calls) in
  List.map2
    (fun c ns -> ("pmem.flush_ns_per_op." ^ Pmem.Stats.cat_name c, per_op ns))
    categories (Array.to_list d.flush_ns)
  @ [
      ("pmem.flushes_per_op", per_op d.flushes);
      ("pmem.reflush_ratio", ratio d.reflushes d.flushes);
      ("pmem.sequential_share", ratio d.sequential d.flushes);
      ("pmem.fences_saved_per_op", per_op d.fences_saved);
      ("pmem.coalesced_per_op", per_op d.coalesced);
      ("core.wal.group_commit_size", ratio d.group_entries d.group_commits);
      ("core.wal.group_commits_per_op", per_op d.group_commits);
      ("core.slab.header_flush_lines_per_op", per_op d.header_lines);
      ("core.metadata_bytes_per_live", metadata_per_live);
      ("core.extent.lookups_per_large_op", ratio d.extent_lookups (fi large_ops));
      ("core.extent.coalesced_per_large_op", ratio d.extents_coalesced (fi large_ops));
    ]

(* Simulated self-time shares of the blame components, from the
   attribution the program already keeps ([Telemetry.Attr]). *)
let blame_components =
  [ "flush:wal"; "flush:meta"; "flush:data"; "flush:log"; "reflush:meta"; "fence"; "search";
    "lock_wait"; "pm_read"; "dram" ]

(* Self time of each component (by leaf name), then the total, summed
   into [acc]. *)
let add_blame acc attr =
  let n = List.length blame_components in
  List.iter
    (fun (path, self, _) ->
      acc.(n) <- acc.(n) +. self;
      match List.rev path with
      | leaf :: _ -> List.iteri (fun i c -> if c = leaf then acc.(i) <- acc.(i) +. self) blame_components
      | [] -> ())
    (Telemetry.Attr.nodes attr)

let blame_shares acc =
  let n = List.length blame_components in
  List.mapi
    (fun i c -> ("blame." ^ String.map (fun ch -> if ch = ':' then '_' else ch) c ^ ".share", ratio acc.(i) acc.(n)))
    blame_components

let blame_acc () = Array.make (List.length blame_components + 1) 0.0

let sorted b =
  let a = Probe.contents b in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let pct a q =
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fi n)) - 1)))

let sim_latencies (p : Probe.t) =
  let m = sorted p.Probe.sim_malloc and f = sorted p.Probe.sim_free in
  [
    ("sim_malloc_mean_ns", ratio (Array.fold_left ( +. ) 0.0 m) (fi (Array.length m)));
    ("sim_malloc_p99_ns", pct m 0.99);
    ("sim_free_p99_ns", pct f 0.99);
  ]

let api_host (p : Probe.t) sp ~timed_ns =
  let cls name b words =
    let a = sorted b in
    [
      (name ^ ".host_ns_p50", pct a 0.50);
      (name ^ ".host_ns_p99", pct a 0.99);
      (name ^ ".words", ratio words (fi (Array.length a)));
    ]
  in
  let api_ns =
    Spans.total_ns sp Spans.malloc_small +. Spans.total_ns sp Spans.malloc_large
    +. Spans.total_ns sp Spans.free
  in
  cls "api.malloc_small" p.Probe.host_small p.Probe.words_small
  @ cls "api.malloc_large" p.Probe.host_large p.Probe.words_large
  @ cls "api.free" p.Probe.host_free p.Probe.words_free
  @ [
      ("api.host_share", ratio api_ns timed_ns);
      ("maint.polls_per_kop", 1000.0 *. ratio (fi p.Probe.polls) (fi p.Probe.calls));
      ("maint.useful_share", ratio (fi p.Probe.useful) (fi p.Probe.polls));
      ("maint.host_share", ratio (Spans.total_ns sp Spans.maint) timed_ns);
      ("harness.make_ms", ratio (Spans.total_ns sp Spans.make) (fi (Spans.count sp Spans.make)) /. 1e6);
    ]

type cost = { ns : float; words : float; promoted : float; majors : int }

(* Run [f] as the timed region: host ns, minor words, promoted words and
   major collections around it. A full major collection first makes every
   timed region start from the same heap state, so no region pays for
   garbage an earlier one left. *)
let measure f =
  Gc.full_major ();
  let c0 = (Gc.quick_stat ()).Gc.major_collections in
  let _, p0, _ = Gc.counters () in
  let t0 = Spans.now_ns () in
  let w0 = Gc.minor_words () in
  let v = f () in
  let w1 = Gc.minor_words () in
  let t1 = Spans.now_ns () in
  let _, p1, _ = Gc.counters () in
  let c1 = (Gc.quick_stat ()).Gc.major_collections in
  (v, { ns = fi (t1 - t0); words = w1 -. w0; promoted = p1 -. p0; majors = c1 - c0 })

(* ---- the op workloads ---- *)

type drive = Instance.t -> int * float * int
(** runs the workload; returns the op count it declares, its simulated
    Mops and its peak mapped bytes *)

type stack = {
  failed : int;
  rejects : string list;
  calls : int;
  cost : cost;
  mops : float;
  peak : int;
  recovery_ns : float;
  counters : (string * float) list;
  blame : (string * float) list;  (** [Blame] rounds only *)
}

(* One stack driven by a [Workloads] generator, then checked: the op
   count the workload declares must equal the calls the probe saw, and
   the integrity walk must pass. An NVAlloc stack is then crashed and
   recovered to read the simulated recovery time of the heap the round
   left behind. *)
let op_stack ~recover mode probe ~make ~(drive : drive) =
  let spans = spans_of mode in
  let inst, attr = build mode make in
  let w = Probe.wrap probe inst in
  let calls0 = probe.Probe.calls and large0 = probe.Probe.large_ops in
  let c0 = read_counters inst.Instance.dev in
  let (declared, mops, peak), cost = measure (fun () -> timed spans Spans.run (fun () -> drive w)) in
  let blame =
    match attr with
    | Some a ->
        let acc = blame_acc () in
        add_blame acc a;
        blame_shares acc
    | None -> []
  in
  let calls = probe.Probe.calls - calls0 in
  let d = zero_counters () in
  add_delta d c0 (read_counters inst.Instance.dev);
  let metadata_per_live =
    match inst.Instance.metadata_bytes with
    | Some f -> ratio (fi (f ())) (fi probe.Probe.live)
    | None -> 0.0
  in
  let failed, rejects, recovery_ns =
    timed spans Spans.check (fun () ->
        let integrity =
          match inst.Instance.integrity with
          | Some f -> ( match f () with Ok _ -> None | Error e -> Some ("integrity walk: " ^ e))
          | None -> None
        in
        let count =
          if declared = calls then None
          else Some (Printf.sprintf "workload declared %d calls, the probe saw %d" declared calls)
        in
        let recovery_ns = if recover then inst.Instance.recover () else 0.0 in
        let failed = abs (declared - calls) + if Option.is_some integrity then calls else 0 in
        (min calls failed, List.filter_map Fun.id [ count; integrity ], recovery_ns))
  in
  {
    failed;
    rejects = List.map (fun e -> inst.Instance.name ^ ": " ^ e) rejects;
    calls;
    cost;
    mops;
    peak;
    recovery_ns;
    counters = layer_counters d ~calls ~large_ops:(probe.Probe.large_ops - large0) ~metadata_per_live;
    blame;
  }

let driver_result (r : Workloads.Driver.result) =
  (r.Workloads.Driver.total_ops, r.Workloads.Driver.mops, r.Workloads.Driver.peak_bytes)

(* NVAlloc-LOG, then (fragbench-shift) the same inputs on Makalu. Host
   figures cover both stacks; simulated figures are NVAlloc-LOG's. *)
let op_round ~make ~drive ?makalu mode =
  let spans = spans_of mode in
  let probe = Probe.create spans in
  let o = op_stack ~recover:true mode probe ~make ~drive in
  let m = Option.map (fun make -> op_stack ~recover:false Plain (Probe.create None) ~make ~drive) makalu in
  let stacks = o :: Option.to_list m in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 stacks in
  let calls = List.fold_left (fun acc (s : stack) -> acc + s.calls) 0 stacks in
  let host_ns = sum (fun s -> s.cost.ns) in
  (* Only the NVAlloc-LOG stack is span-traced; shares are of its time. *)
  let host =
    match spans with
    | None -> o.blame
    | Some sp ->
        ("workloads.host_share", ratio (Spans.self_ns sp Spans.run) o.cost.ns)
        :: api_host probe sp ~timed_ns:o.cost.ns
  in
  let makalu_host, makalu_counters =
    match m with
    | None -> ([], [])
    | Some m ->
        ( [
            ("baselines.makalu.host_kops", ratio (fi m.calls *. 1e6) m.cost.ns);
            ("baselines.makalu.words_per_op", ratio m.cost.words (fi m.calls));
          ],
          [ ("baselines.makalu.sim_peak_mib", fi m.peak /. mib) ] )
  in
  {
    units = calls;
    failed = List.fold_left (fun acc (s : stack) -> acc + s.failed) 0 stacks;
    rejects = List.concat_map (fun (s : stack) -> s.rejects) stacks;
    calls;
    host_ns;
    words = sum (fun s -> s.cost.words);
    promoted = sum (fun s -> s.cost.promoted);
    majors = List.fold_left (fun acc s -> acc + s.cost.majors) 0 stacks;
    sim =
      (("sim_mops", o.mops) :: sim_latencies probe)
      @ [ ("sim_peak_mib", fi o.peak /. mib); ("sim_recovery_us", o.recovery_ns /. 1e3) ];
    counters = o.counters @ makalu_counters;
    host = host @ makalu_host;
  }

(* ---- crash-recover ---- *)

(* The fuzzer's op mix (Fault.Fuzz): frees of published slots
   interleaved with small and large allocations over 512 root slots. *)
let plan_sizes = [| 32; 48; 136; 1024; 40 * 1024 |]
let plan_slots = 512

let plan_ops (inst : Instance.t) ~seed ~ops =
  let rng = Sim.Rng.create seed in
  let used = Array.make plan_slots false in
  for _ = 1 to ops do
    let i = Sim.Rng.int rng plan_slots in
    let dest = inst.Instance.root i in
    if used.(i) then begin
      if Sim.Rng.bool rng then begin
        inst.Instance.free ~tid:0 ~dest;
        used.(i) <- false
      end
    end
    else begin
      let size = plan_sizes.(Sim.Rng.int rng (Array.length plan_sizes)) in
      ignore (inst.Instance.malloc ~tid:0 ~size ~dest : int);
      used.(i) <- true
    end
  done

type plan_result = {
  error : string option;  (** why the plan was rejected *)
  sim_ns : float;
  plan_peak : int;
  first_recovery_ns : float;
  replayed : int;
  torn_skipped : int;
  workload_ms : float;
  oracle_ms : float;
}

let plan_dev_size = 64 * 1024 * 1024

(* The instance clamps arenas to its thread count, and the plan config
   has two arenas (the oracle re-opens the heap with that config); the
   ops all run on thread 0, as in the fuzzer. *)
let plan_threads = 2

(* One plan: fresh stack, seeded ops, crash (line-granular or torn), the
   first recovery (its simulated time is Figure 18's quantity), a second
   crash, then the oracle's own recovery and invariant checks. The
   persist-ordering checker is on, as in the fuzzer. *)
let run_plan ~broken mode probe counters blame (plan : Plan.t) =
  let spans = spans_of mode in
  let config = Plan.config Plan.Log in
  let ms_since t0 = fi (Spans.now_ns () - t0) /. 1e6 in
  timed spans Spans.plan @@ fun () ->
  let inst, attr =
    build mode (fun () ->
        Instance.of_nvalloc ~config ~threads:plan_threads ~dev_size:plan_dev_size ~broken_wal:broken ())
  in
  let dev = inst.Instance.dev in
  Pmem.Device.set_check_mode dev true;
  let w = Probe.wrap probe inst in
  let c0 = read_counters dev in
  let t0 = Spans.now_ns () in
  timed spans Spans.plan_workload (fun () ->
      Pmem.Device.schedule_crash_after ?torn:plan.Plan.torn ~torn_seed:plan.Plan.torn_seed dev
        plan.Plan.crash_after;
      try
        plan_ops w ~seed:plan.Plan.seed ~ops:plan.Plan.ops;
        Pmem.Device.cancel_scheduled_crash dev;
        Pmem.Device.crash dev
      with Pmem.Device.Injected_crash -> ());
  let workload_ms = ms_since t0 in
  let sim_ns = Sim.Clock.now inst.Instance.clocks.(0) in
  let plan_peak = inst.Instance.peak_bytes () in
  add_delta counters c0 (read_counters dev);
  let first =
    timed spans Spans.recover (fun () ->
        let clock = Sim.Clock.create () in
        match Nvalloc_core.Nvalloc.recover ~config dev clock with
        | _, report -> Ok (report, Sim.Clock.now clock)
        | exception e -> Error ("first recovery raised " ^ Printexc.to_string e))
  in
  Pmem.Device.crash dev;
  let t1 = Spans.now_ns () in
  let verdict = timed spans Spans.oracle (fun () -> Fault.Oracle.check ~config dev (Sim.Clock.create ())) in
  let oracle_ms = ms_since t1 in
  Option.iter (add_blame blame) attr;
  let report f = match first with Ok (r, _) -> f r | Error _ -> 0 in
  {
    error =
      (match (first, verdict) with
      | Error e, _ -> Some e
      | Ok _, Error e -> Some ("oracle: " ^ e)
      | Ok _, Ok _ -> None);
    sim_ns;
    plan_peak;
    first_recovery_ns = (match first with Ok (_, ns) -> ns | Error _ -> 0.0);
    replayed = report (fun r -> r.Nvalloc_core.Nvalloc.wal_entries_replayed);
    torn_skipped = report (fun r -> r.Nvalloc_core.Nvalloc.torn_wal_skipped);
    workload_ms;
    oracle_ms;
  }

let crash_round ~broken plans mode =
  let spans = spans_of mode in
  let probe = Probe.create spans in
  let d = zero_counters () and blame = blame_acc () in
  let results, cost = measure (fun () -> List.map (run_plan ~broken mode probe d blame) plans) in
  let n = fi (List.length results) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  let mean f = sum f /. n in
  let calls = probe.Probe.calls in
  let rejects =
    List.map2 (fun p r -> Option.map (Printf.sprintf "plan %s: %s" (Plan.to_string p)) r.error) plans results
    |> List.filter_map Fun.id
  in
  let host =
    match (spans, mode) with
    | None, Blame -> blame_shares blame
    | None, _ -> []
    | Some sp, _ ->
        let ms f =
          let a = Array.of_list (List.map f results) in
          Array.sort Float.compare a;
          a
        in
        let wl = ms (fun r -> r.workload_ms) and orc = ms (fun r -> r.oracle_ms) in
        ("workloads.host_share", ratio (Spans.self_ns sp Spans.plan_workload) cost.ns)
        :: ("fault.workload_ms_p50", pct wl 0.50)
        :: ("fault.oracle_ms_p50", pct orc 0.50)
        :: ("fault.oracle_ms_p99", pct orc 0.99)
        :: api_host probe sp ~timed_ns:cost.ns
  in
  {
    units = List.length results;
    failed = List.length rejects;
    rejects;
    calls;
    host_ns = cost.ns;
    words = cost.words;
    promoted = cost.promoted;
    majors = cost.majors;
    sim =
      (("sim_mops", ratio (fi calls *. 1e3) (sum (fun r -> r.sim_ns))) :: sim_latencies probe)
      @ [
          ("sim_peak_mib", mean (fun r -> fi r.plan_peak) /. mib);
          ("sim_recovery_us", mean (fun r -> r.first_recovery_ns) /. 1e3);
        ];
    counters =
      layer_counters d ~calls ~large_ops:probe.Probe.large_ops ~metadata_per_live:0.0
      @ [
          ("fault.recover.wal_replayed_per_plan", mean (fun r -> fi r.replayed));
          ("fault.recover.torn_skipped_per_plan", mean (fun r -> fi r.torn_skipped));
        ];
    host;
  }

(* ---- inputs ---- *)

let threads = 4

(* Inputs come from [seed] alone: one derived seed per generator, and for
   crash-recover a fixed list of LOG plans (no crash inside recovery, so
   the first recovery always runs to completion and is timed whole). *)
let make ?(scale = Full) ?(broken = false) name ~seed =
  let rng = Sim.Rng.create seed in
  let wseed = Sim.Rng.int rng 1_000_000_000 in
  let nv_log ?dev_size threads () = Harness.Factory.make ?dev_size ~threads Harness.Factory.Nv_log in
  let op_workload ?makalu make drive = { plan_units = false; round = op_round ~make ~drive ?makalu } in
  match name with
  | "larson-small" ->
      let params = Harness.Sizes.larson_small threads in
      (* Smoke size still fills a WAL ring past the checkpoint fraction,
         so the maintenance daemon does useful work. *)
      let params =
        if scale = Smoke then { params with Workloads.Larson.slots = 64; ops = 6000 } else params
      in
      op_workload (nv_log threads) (fun w -> driver_result (Workloads.Larson.run w ~params ~seed:wseed ()))
  | "dbms-large" ->
      let params = Harness.Sizes.dbmstest threads in
      let params =
        if scale = Smoke then { params with Workloads.Dbmstest.objects = 8; iterations = 1; warmup = 1 }
        else params
      in
      op_workload
        (nv_log ~dev_size:Harness.Sizes.large_dev threads)
        (fun w -> driver_result (Workloads.Dbmstest.run w ~params ~seed:wseed ()))
  | "fragbench-shift" ->
      (* Figure 15 scales the paper's 5 GB churn / 1 GB live cap to
         60 MB / 12 MB; a round keeps the same 5:1 ratio at 5 MB / 1 MB. *)
      let params =
        if scale = Smoke then { Workloads.Fragbench.live_cap = 64 * 1024; churn = 256 * 1024 }
        else { Workloads.Fragbench.live_cap = 1024 * 1024; churn = 5 * 1024 * 1024 }
      in
      let drive w =
        let r = Workloads.Fragbench.run w ~workload:Workloads.Fragbench.w3 ~params ~seed:wseed () in
        let d = r.Workloads.Fragbench.result in
        (d.Workloads.Driver.total_ops, d.Workloads.Driver.mops, r.Workloads.Fragbench.peak_after)
      in
      op_workload (nv_log 1) drive ~makalu:(fun () -> Harness.Factory.make ~threads:1 Harness.Factory.Makalu)
  | "crash-recover" ->
      let plans =
        (* 64 smoke plans on the test's seed include a torn WAL entry. *)
        List.init
          (if scale = Smoke then 64 else 256)
          (fun _ -> { (Plan.sample ~variant:Plan.Log rng) with Plan.recovery_crash = None })
      in
      { plan_units = true; round = crash_round ~broken plans }
  | _ -> invalid_arg (Printf.sprintf "unknown workload %S (expected one of: %s)" name (String.concat ", " names))
