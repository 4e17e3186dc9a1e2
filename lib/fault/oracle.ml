open Nvalloc_core

let report_suffix report = Format.asprintf " [%a]" Nvalloc.pp_recovery_report report

(* Persist-ordering verdict from the device checker (check mode only):
   any commit that retired while a declared dependency was still dirty,
   recorded during the run that led here or during the stage named by
   [stage]. *)
let ordering_failure dev ~stage =
  if not (Pmem.Device.check_mode dev) then None
  else
    let n = Pmem.Device.ordering_violation_count dev in
    if n = 0 then None
    else
      let first =
        match Pmem.Device.ordering_violations dev with
        | v :: _ -> Format.asprintf ": %a" Pmem.Device.pp_violation v
        | [] -> ""
      in
      Some (Printf.sprintf "%d persist-ordering violation(s) %s%s" n stage first)

let check ~config dev clock =
  let fail report fmt =
    Printf.ksprintf (fun msg -> failwith (msg ^ report_suffix report)) fmt
  in
  try
    (* 0. Persist-ordering up to (and including) the crash. *)
    (match ordering_failure dev ~stage:"before recovery" with
    | Some msg -> failwith msg
    | None -> ());
    let t, report = Nvalloc.recover ~config dev clock in
    (* 1. Owner-index disjointness. *)
    (match Nvalloc.check_owner_index t with
    | Ok _ -> ()
    | Error e -> fail report "owner index broken: %s" e);
    (* 2. Every published root resolves to a live block and frees.
       NVAlloc-GC is exempt from liveness: its conservative mark
       tolerates resurrection aliasing (see [Arena.return_block]), so a
       root there can name a block that is not live on its own. *)
    let th = Nvalloc.thread t clock in
    let gc = config.Config.consistency = Config.Gc_based in
    for i = 0 to Nvalloc.root_slots t - 1 do
      let dest = Nvalloc.root_addr t i in
      let v = Nvalloc.read_ptr t ~dest in
      if v > 0 then begin
        if Nvalloc.owner_of_addr t v = None then
          fail report "published root %d -> %#x has no owner" i v;
        if (not gc) && not (Nvalloc.is_allocated t v) then
          fail report "published root %d -> %#x is not a live block" i v;
        Nvalloc.free_from t th ~dest
      end
    done;
    (* 3a. NVAlloc-IC: leak resolution is the application's job — walk
       the exact object enumeration and free the orphans through a
       scratch slot (the POBJ_FIRST/POBJ_NEXT idiom). All published
       roots were just freed, so whatever remains is an orphan. *)
    if config.Config.consistency = Config.Internal_collection then begin
      let orphans = ref [] in
      Nvalloc.iter_allocated t (fun ~addr ~size:_ -> orphans := addr :: !orphans);
      let scratch = Nvalloc.root_addr t 0 in
      List.iter
        (fun addr ->
          Pmem.Device.write_int64 dev scratch (Int64.of_int addr);
          Pmem.Device.flush dev clock Pmem.Stats.Data ~addr:scratch ~len:8;
          Nvalloc.free_from t th ~dest:scratch)
        !orphans
    end;
    (* 3b. Leak-freedom: a clean shutdown drains the tcaches; reopening
       must find a Shutdown heap with nothing still marked allocated. *)
    Nvalloc.exit_ t clock;
    let t2, report2 = Nvalloc.recover ~config dev clock in
    if report2.Nvalloc.found_state <> Heap.Shutdown then
      fail report2 "clean exit not observed as Shutdown";
    let live = Nvalloc.allocated_small_blocks t2 in
    if live <> 0 then fail report "%d small blocks leaked" live;
    (* 4. Usability probe: the heap serves fresh allocations. *)
    let th2 = Nvalloc.thread t2 clock in
    for i = 0 to 63 do
      ignore (Nvalloc.malloc_to t2 th2 ~size:64 ~dest:(Nvalloc.root_addr t2 i))
    done;
    for i = 0 to 63 do
      Nvalloc.free_from t2 th2 ~dest:(Nvalloc.root_addr t2 i)
    done;
    (* 5. Persist-ordering of recovery and the oracle's own traffic. *)
    (match ordering_failure dev ~stage:"during recovery/oracle" with
    | Some msg -> fail report "%s" msg
    | None -> ());
    Ok report
  with
  | Failure msg -> Error msg
  | e -> Error (Printf.sprintf "exception: %s" (Printexc.to_string e))
