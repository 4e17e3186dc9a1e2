(* Command line: run one benchmark workload and print its metrics as the
   last line of standard output.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]

   Exits 1 (printing no result) if the run cannot be completed. *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let spans_out = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Layerbench.Loads.names);
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S host seconds of timed rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans-out", Arg.String (fun s -> spans_out := Some s), "FILE write traced spans here");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Layerbench.Loads.names) || !seed < 0 || !seconds < 0.0
     || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end;
  match
    Layerbench.Bench.run ?spans_out:!spans_out ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1) ()
  with
  | o ->
      List.iter (fun e -> prerr_endline ("layerbench: rejected: " ^ e)) o.Layerbench.Bench.rejects;
      if o.Layerbench.Bench.idle <> [] then
        prerr_endline ("layerbench: reads 0 on this workload: " ^ String.concat " " o.Layerbench.Bench.idle);
      print_endline (Layerbench.Bench.to_json o)
  | exception e ->
      prerr_endline ("layerbench: " ^ Printexc.to_string e);
      exit 1
