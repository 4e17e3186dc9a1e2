(* One benchmark run: set-ups, then timed rounds for the requested host
   seconds, then the metrics. Untraced runs report the end-to-end
   metrics; traced runs alternate an untraced and a traced round over
   the same inputs and report the per-layer metrics. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("words_per_op", "words/op");
    ("host_heap_mib", "MiB");
    ("sim_mops", "Mops/sim-s");
    ("sim_malloc_mean_ns", "sim_ns");
    ("sim_malloc_p99_ns", "sim_ns");
    ("sim_free_p99_ns", "sim_ns");
    ("sim_peak_mib", "MiB");
    ("sim_recovery_us", "sim_us");
  ]

let per_layer =
  [
    ("host_kops", "kops/s");
    ("api.malloc_small.host_ns_p50", "ns");
    ("api.malloc_small.host_ns_p99", "ns");
    ("api.malloc_large.host_ns_p50", "ns");
    ("api.malloc_large.host_ns_p99", "ns");
    ("api.free.host_ns_p50", "ns");
    ("api.free.host_ns_p99", "ns");
    ("api.malloc_small.words", "words/call");
    ("api.malloc_large.words", "words/call");
    ("api.free.words", "words/call");
    ("api.host_share", "ratio");
    ("workloads.host_share", "ratio");
    ("maint.polls_per_kop", "polls/kop");
    ("maint.useful_share", "ratio");
    ("maint.host_share", "ratio");
    ("harness.make_ms", "ms");
    ("fault.plans_per_s", "plans/s");
    ("fault.kwords_per_plan", "kwords/plan");
    ("fault.workload_ms_p50", "ms");
    ("fault.oracle_ms_p50", "ms");
    ("fault.oracle_ms_p99", "ms");
    ("fault.recover.wal_replayed_per_plan", "entries/plan");
    ("fault.recover.torn_skipped_per_plan", "entries/plan");
    ("pmem.flushes_per_op", "1/op");
    ("pmem.reflush_ratio", "ratio");
    ("pmem.sequential_share", "ratio");
    ("pmem.fences_saved_per_op", "1/op");
    ("pmem.coalesced_per_op", "1/op");
    ("pmem.flush_ns_per_op.meta", "sim_ns/op");
    ("pmem.flush_ns_per_op.wal", "sim_ns/op");
    ("pmem.flush_ns_per_op.log", "sim_ns/op");
    ("pmem.flush_ns_per_op.data", "sim_ns/op");
    ("core.wal.group_commit_size", "entries");
    ("core.wal.group_commits_per_op", "1/op");
    ("core.slab.header_flush_lines_per_op", "1/op");
    ("core.metadata_bytes_per_live", "B/object");
    ("core.extent.lookups_per_large_op", "1/op");
    ("core.extent.coalesced_per_large_op", "1/op");
    ("blame.flush_wal.share", "ratio");
    ("blame.flush_meta.share", "ratio");
    ("blame.flush_data.share", "ratio");
    ("blame.flush_log.share", "ratio");
    ("blame.reflush_meta.share", "ratio");
    ("blame.fence.share", "ratio");
    ("blame.search.share", "ratio");
    ("blame.lock_wait.share", "ratio");
    ("blame.pm_read.share", "ratio");
    ("blame.dram.share", "ratio");
    ("baselines.makalu.host_kops", "kops/s");
    ("baselines.makalu.words_per_op", "words/op");
    ("baselines.makalu.sim_peak_mib", "MiB");
    ("gc.promoted_words_per_op", "words/op");
    ("gc.major_collections_per_round", "1/round");
    ("trace.overhead_share", "ratio");
  ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  idle : string list;  (** per-layer metrics that read 0 on this workload *)
  rejects : string list;  (** each distinct rejection, in the order first seen *)
}

let fi = float_of_int
let ratio = Loads.ratio

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let seconds_since t0 = fi (Spans.now_ns () - t0) /. 1e9
let min_rounds = 3
let setups = 9

(* Median over [rounds] of the named per-round value. *)
let median_of rounds pick name =
  median (List.filter_map (fun r -> List.assoc_opt name (pick r)) rounds)

let run ?(scale = Loads.Full) ?(broken = false) ?spans_out ~workload ~seed ~seconds ~trace () =
  let attempted = ref 0 and failed = ref 0 and reference = ref None and rejects = ref [] in
  (* A round fails on the units its checks rejected; a round whose
     simulated figures differ from the first round's fails whole. *)
  let check (r : Loads.round) =
    let drift =
      match !reference with
      | None ->
          reference := Some r.Loads.sim;
          false
      | Some s -> s <> r.Loads.sim
    in
    attempted := !attempted + r.Loads.units;
    failed := !failed + if drift then r.Loads.units else min r.Loads.units r.Loads.failed;
    let seen =
      if drift then "simulated figures differ from the first round's" :: r.Loads.rejects
      else r.Loads.rejects
    in
    List.iter (fun e -> if not (List.mem e !rejects) then rejects := e :: !rejects) seen
  in
  (* One set-up generates the inputs from the seed, then runs one
     untimed warm-up round (stack construction, workload, checks). It is
     timed in process CPU seconds, which leave out the time the host
     does not schedule this process. The first few set-ups of a process
     are slower while its heap grows; with [setups] of them, the median
     falls past that transient. *)
  let set_up () =
    let t0 = Sys.time () in
    let w = Loads.make ~scale ~broken workload ~seed in
    check (w.Loads.round Loads.Plain);
    (w, Sys.time () -. t0)
  in
  let setup = List.init setups (fun _ -> set_up ()) in
  let w = fst (List.hd setup) and setup = List.map snd setup in
  let start = Spans.now_ns () in
  let more n = n < min_rounds || seconds_since start < seconds in
  let metrics =
    if not trace then begin
      let rec loop n acc heap =
        if not (more n) then (List.rev acc, heap)
        else begin
          let r = w.Loads.round Loads.Plain in
          check r;
          let heap =
            if n = 0 then fi (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. Loads.mib else heap
          in
          loop (n + 1) (r :: acc) heap
        end
      in
      let rounds, heap = loop 0 [] 0.0 in
      let per f = median (List.map f rounds) in
      let sim = match !reference with Some s -> s | None -> [] in
      [
        ("setup_s", median setup);
        ("words_per_op", per (fun r -> ratio r.Loads.words (fi r.Loads.calls)));
        ("host_heap_mib", heap);
      ]
      @ sim
    end
    else begin
      let sp = Spans.create () in
      let blame = w.Loads.round Loads.Blame in
      check blame;
      let rec loop n acc =
        if not (more n) then List.rev acc
        else begin
          let plain = w.Loads.round Loads.Plain in
          check plain;
          Spans.start_round sp n;
          Spans.enter sp Spans.round;
          let traced = w.Loads.round (Loads.Traced sp) in
          ignore (Spans.leave sp : int);
          check traced;
          loop (n + 1) ((plain, traced) :: acc)
        end
      in
      let pairs = loop 0 [] in
      let plain = List.map fst pairs and traced = List.map snd pairs in
      let per f = median (List.map f plain) in
      (match spans_out with
      | Some path -> Out_channel.with_open_text path (fun oc -> Spans.write sp oc)
      | None -> ());
      (* Host throughput and GC figures come from the untraced rounds,
         simulated counters from the first traced round, blame shares
         from the attribution round, host layer figures from the traced
         rounds. *)
      let untraced =
        [
          ("host_kops", per (fun r -> ratio (fi r.Loads.calls *. 1e6) r.Loads.host_ns));
          ("gc.promoted_words_per_op", per (fun r -> ratio r.Loads.promoted (fi r.Loads.calls)));
          ("gc.major_collections_per_round", per (fun r -> fi r.Loads.majors));
          ( "trace.overhead_share",
            median (List.map (fun (p, t) -> ratio t.Loads.host_ns p.Loads.host_ns -. 1.0) pairs) );
        ]
        @
        if w.Loads.plan_units then
          [
            ("fault.plans_per_s", per (fun r -> ratio (fi r.Loads.units *. 1e9) r.Loads.host_ns));
            ("fault.kwords_per_plan", per (fun r -> ratio r.Loads.words (fi r.Loads.units) /. 1e3));
          ]
        else []
      in
      let traced_host =
        List.concat_map (fun (r : Loads.round) -> List.map fst r.Loads.host) traced
        |> List.sort_uniq compare
        |> List.map (fun name -> (name, median_of traced (fun r -> r.Loads.host) name))
      in
      untraced @ (List.hd traced).Loads.counters @ blame.Loads.host @ traced_host
    end
  in
  let table = if trace then per_layer else end_to_end in
  let value (name, unit_) =
    match List.assoc_opt name metrics with
    | Some v when Float.is_finite v -> (name, unit_, v)
    | Some v -> failwith (Printf.sprintf "metric %s is not finite (%g)" name v)
    | None when trace -> (name, unit_, 0.0)
    | None -> failwith (Printf.sprintf "metric %s was not measured" name)
  in
  let metrics = List.map value table in
  let idle = List.filter_map (fun (n, _, v) -> if v = 0.0 then Some n else None) metrics in
  {
    correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    metrics;
    idle;
    rejects = List.rev !rejects;
  }

let to_json o =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" o.correct
    o.attempted o.failed;
  List.iteri
    (fun i (name, unit_, v) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name v unit_)
    o.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
