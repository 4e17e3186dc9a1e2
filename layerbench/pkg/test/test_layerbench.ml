(* Smoke tests of the benchmark itself: every workload emits every
   declared metric with its unit and passes its checks; the crash check
   has teeth; spans' self time is consistent; inputs follow the seed. *)

open Layerbench

let smoke ?broken ~trace workload =
  Bench.run ~scale:Loads.Smoke ?broken ~seconds:0.0 ~workload ~seed:7 ~trace ()

(* The traced smoke runs are shared by two tests. *)
let traced = List.map (fun w -> (w, lazy (smoke ~trace:true w))) Loads.names
let outcome ~trace w = if trace then Lazy.force (List.assoc w traced) else smoke ~trace w

let emits_every_metric workload trace () =
  let o = outcome ~trace workload in
  let table = if trace then Bench.per_layer else Bench.end_to_end in
  Alcotest.(check (list (pair string string)))
    "names and units" table
    (List.map (fun (n, u, _) -> (n, u)) o.Bench.metrics);
  Alcotest.(check bool) "attempted" true (o.Bench.attempted > 0);
  Alcotest.(check int) "failed" 0 o.Bench.failed;
  Alcotest.(check bool) "correct" true o.Bench.correct;
  Alcotest.(check (list string)) "rejections" [] o.Bench.rejects;
  if not trace then
    List.iter
      (fun (n, _, v) -> if v <= 0.0 then Alcotest.failf "end-to-end metric %s is %g" n v)
      o.Bench.metrics

(* Every per-layer metric must read nonzero on some workload. One that
   reads 0 everywhere is a misspelt name, a layer the benchmark lost, or
   a counter that no longer counts. *)
let every_layer_is_reached () =
  let idle = List.map (fun w -> (outcome ~trace:true w).Bench.idle) Loads.names in
  List.iter
    (fun (name, _) ->
      if List.for_all (List.mem name) idle then Alcotest.failf "%s is idle on every workload" name)
    Bench.per_layer

let broken_wal_is_caught () =
  let o = smoke ~broken:true ~trace:false "crash-recover" in
  Alcotest.(check bool) "failed plans" true (o.Bench.failed > 0);
  Alcotest.(check bool) "not correct" false o.Bench.correct;
  Alcotest.(check bool) "rejections named" true (o.Bench.rejects <> [])

let json_line () =
  let o = smoke ~trace:false "larson-small" in
  match Telemetry.Json.parse (Bench.to_json o) with
  | Error e -> Alcotest.fail e
  | Ok j ->
      List.iter
        (fun k -> if Telemetry.Json.member k j = None then Alcotest.failf "missing key %s" k)
        [ "correct"; "attempted"; "failed"; "metrics" ]

let sim w mode = (w.Loads.round mode).Loads.sim

let sim_follows_seed () =
  let a = Loads.make ~scale:Loads.Smoke "larson-small" ~seed:1
  and b = Loads.make ~scale:Loads.Smoke "larson-small" ~seed:2 in
  let sa = sim a Loads.Plain in
  Alcotest.(check bool) "same seed, same figures" true (sa = sim a Loads.Plain);
  Alcotest.(check bool) "traced pass, same figures" true (sa = sim a (Loads.Traced (Spans.create ())));
  Alcotest.(check bool) "blame pass, same figures" true (sa = sim a Loads.Blame);
  Alcotest.(check bool) "other seed, other figures" true (sa <> sim b Loads.Plain)

let self_time_matches_intervals workload () =
  let w = Loads.make ~scale:Loads.Smoke workload ~seed:3 in
  let sp = Spans.create () in
  Spans.start_round sp 1;
  Spans.enter sp Spans.round;
  ignore (w.Loads.round (Loads.Traced sp) : Loads.round);
  ignore (Spans.leave sp : int);
  Alcotest.(check int) "no span dropped" 0 (Spans.dropped sp);
  let offline = Spans.offline_self sp ~round:1 in
  Array.iteri
    (fun i name -> Alcotest.(check (float 0.0)) name (Spans.self_ns sp i) (float_of_int offline.(i)))
    Spans.names

let () =
  let per_workload f =
    List.map (fun w -> Alcotest.test_case w `Quick (f w)) Loads.names
  in
  Alcotest.run "layerbench"
    [
      ("end-to-end metrics", per_workload (fun w -> emits_every_metric w false));
      ("per-layer metrics", per_workload (fun w -> emits_every_metric w true));
      ("self time", per_workload self_time_matches_intervals);
      ( "checks",
        [
          Alcotest.test_case "every layer is reached" `Quick every_layer_is_reached;
          Alcotest.test_case "broken WAL fails crash plans" `Quick broken_wal_is_caught;
          Alcotest.test_case "result line is JSON" `Quick json_line;
          Alcotest.test_case "simulated figures follow the seed only" `Quick sim_follows_seed;
        ] );
    ]
