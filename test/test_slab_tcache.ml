(* Slab layout, header persistence, index-entry packing; tcache rotation
   semantics; size classes. *)

open Nvalloc_core

let mk_dev () = Pmem.Device.create ~size:(1 lsl 20) ()

(* --- size classes --------------------------------------------------------- *)

let test_size_class_table () =
  Alcotest.(check int) "first class is 16 B" 16 (Size_class.size_of 0);
  Alcotest.(check int) "largest is 16 KiB" 16384 (Size_class.size_of (Size_class.count - 1));
  Alcotest.(check (option int)) "zero has no class" None (Size_class.of_size 0);
  Alcotest.(check (option int)) "above max is large" None (Size_class.of_size 16385);
  Alcotest.(check (option int)) "1 B fits class 0" (Some 0) (Size_class.of_size 1)

let prop_size_class_fits =
  let open QCheck in
  Test.make ~name:"of_size returns the smallest fitting class" ~count:300
    (make Gen.(int_range 1 16384))
    (fun n ->
      match Size_class.of_size n with
      | None -> false
      | Some c ->
          Size_class.size_of c >= n && (c = 0 || Size_class.size_of (c - 1) < n))

let prop_classes_monotone =
  let open QCheck in
  Test.make ~name:"class sizes strictly increase" ~count:1
    (make Gen.(return ()))
    (fun () ->
      let ok = ref true in
      for c = 1 to Size_class.count - 1 do
        if Size_class.size_of c <= Size_class.size_of (c - 1) then ok := false
      done;
      !ok)

(* --- slab layout ------------------------------------------------------------ *)

let prop_layout_sound =
  (* For every class and mapping: blocks fit the slab, never overlap the
     header, and the bitmap covers them. *)
  let open QCheck in
  Test.make ~name:"slab layouts are sound for all classes" ~count:80
    (make
       Gen.(
         pair (int_range 0 (Size_class.count - 1))
           (oneof [ return Bitmap.Sequential; map (fun s -> Bitmap.Interleaved s) (int_range 2 32) ])))
    (fun (class_idx, mapping) ->
      let l = Slab.layout_of_class ~class_idx ~mapping in
      l.Slab.nblocks > 0
      && l.Slab.data_off >= 64 + (Slab.index_capacity * 2) + (l.Slab.bitmap_lines * 64)
      && l.Slab.data_off + (l.Slab.nblocks * l.Slab.block_size) <= Slab.slab_bytes
      && Bitmap.lines_for ~nbits:l.Slab.nblocks ~mapping = l.Slab.bitmap_lines)

let test_format_and_recover () =
  let dev = mk_dev () in
  let mapping = Bitmap.Interleaved 6 in
  let layout = Slab.layout_of_class ~class_idx:3 ~mapping in
  let s = Slab.format dev ~addr:65536 ~arena:0 ~mapping layout in
  Alcotest.(check bool) "magic present" true (Slab.is_slab_header dev 65536);
  Alcotest.(check int) "class persisted" 3 (Slab.read_class dev 65536);
  Alcotest.(check int) "all free" layout.Slab.nblocks s.Slab.free_count;
  (* Mark a few blocks, then rebuild from the header. *)
  Bitmap.set dev s.Slab.bitmap 0;
  Bitmap.set dev s.Slab.bitmap 5;
  let dirty = Pmem.Device.dirty_lines dev in
  let s' = Slab.recover dev (Sim.Clock.create ()) ~addr:65536 ~arena:0 ~mapping in
  Alcotest.(check int) "no undo, nothing flushed" dirty (Pmem.Device.dirty_lines dev);
  Alcotest.(check int) "free count reflects bits" (layout.Slab.nblocks - 2) s'.Slab.free_count;
  Alcotest.(check bool) "free set excludes set bits" true
    ((not (Slab.free_mem s' 0)) && not (Slab.free_mem s' 5))

(* A morph torn at flag 2: class 3 slab with live blocks 0 and 5 recorded
   in the index table, class field already switched to 5 and the new
   bitmap zeroed, all persisted. *)
let torn_morph_image () =
  let dev = mk_dev () in
  let clock = Sim.Clock.create () in
  let mapping = Bitmap.Interleaved 6 in
  let addr = 65536 in
  let s = Slab.format dev ~addr ~arena:0 ~mapping (Slab.layout_of_class ~class_idx:3 ~mapping) in
  Bitmap.set dev s.Slab.bitmap 0;
  Bitmap.set dev s.Slab.bitmap 5;
  Slab.Header.write_old_class dev addr 3;
  List.iteri
    (fun slot b ->
      Slab.write_index_entry dev addr slot (Slab.pack_index_entry ~block:b ~allocated:true))
    [ 0; 5 ];
  Slab.Header.write_index_count dev addr 2;
  Slab.Header.write_flag dev addr 2;
  Slab.Header.write_class dev addr 5;
  Bitmap.clear_all dev s.Slab.bitmap;
  Pmem.Device.flush_all dev clock Pmem.Stats.Meta;
  (dev, clock, mapping, addr)

let test_morph_undo_crash_ordering () =
  (* Crash the undo at each of its line flushes: the next recovery must
     still see blocks 0 and 5 allocated. Persisting the flag-0 header
     before the restored bitmap would hand them out again. *)
  for n = 1 to 8 do
    let dev, clock, mapping, addr = torn_morph_image () in
    Pmem.Device.schedule_crash_after dev n;
    (try ignore (Slab.recover dev clock ~addr ~arena:0 ~mapping)
     with Pmem.Device.Injected_crash -> ());
    Pmem.Device.cancel_scheduled_crash dev;
    Pmem.Device.crash dev;
    let s = Slab.recover dev clock ~addr ~arena:0 ~mapping in
    let name = Printf.sprintf "crash at flush %d" n in
    Alcotest.(check int) (name ^ ": old class restored") 3 s.Slab.layout.Slab.class_idx;
    Alcotest.(check bool) (name ^ ": live blocks stay allocated") true
      ((not (Slab.free_mem s 0)) && not (Slab.free_mem s 5));
    Alcotest.(check int) (name ^ ": flag cleared") 0 (Slab.Header.read_flag dev addr)
  done

let prop_index_entry_roundtrip =
  let open QCheck in
  Test.make ~name:"index entries pack/unpack" ~count:200
    (make Gen.(pair (int_range 0 4095) bool))
    (fun (block, allocated) ->
      Slab.unpack_index_entry (Slab.pack_index_entry ~block ~allocated) = (block, allocated))

let test_block_addr_roundtrip () =
  let dev = mk_dev () in
  let mapping = Bitmap.Sequential in
  let layout = Slab.layout_of_class ~class_idx:0 ~mapping in
  let s = Slab.format dev ~addr:65536 ~arena:0 ~mapping layout in
  for b = 0 to layout.Slab.nblocks - 1 do
    let addr = Slab.block_addr s b in
    assert (Slab.block_index s addr = b);
    assert (Slab.contains_new_block s addr)
  done;
  Alcotest.(check bool) "misaligned address rejected" false
    (Slab.contains_new_block s (Slab.block_addr s 0 + 1))

(* --- tcache ------------------------------------------------------------------ *)

let mk_slab dev = Slab.format dev ~addr:65536 ~arena:0 ~mapping:(Bitmap.Interleaved 6)
    (Slab.layout_of_class ~class_idx:2 ~mapping:(Bitmap.Interleaved 6))

let test_tcache_fifo_capacity () =
  let dev = mk_dev () in
  let s = mk_slab dev in
  let tc = Tcache.create ~class_idx:2 ~capacity:4 ~nsub:1 in
  for b = 0 to 3 do
    Alcotest.(check bool) "push ok" true
      (Tcache.push tc { Tcache.slab = s; addr = Slab.block_addr s b })
  done;
  Alcotest.(check bool) "full rejects" false
    (Tcache.push tc { Tcache.slab = s; addr = Slab.block_addr s 4 });
  Alcotest.(check int) "count" 4 (Tcache.count tc);
  Alcotest.(check int) "drain returns all" 4 (List.length (Tcache.drain tc));
  Alcotest.(check bool) "empty after drain" true (Tcache.is_empty tc)

let test_tcache_rotation_avoids_lines () =
  let dev = mk_dev () in
  let s = mk_slab dev in
  let nsub = 6 in
  let tc = Tcache.create ~class_idx:2 ~capacity:64 ~nsub in
  for b = 0 to 47 do
    ignore (Tcache.push tc { Tcache.slab = s; addr = Slab.block_addr s b })
  done;
  (* Any 4 consecutive pops map to 4 distinct bitmap lines. *)
  let pops = List.init 24 (fun _ -> Option.get (Tcache.pop tc)) in
  let lines =
    List.map
      (fun e ->
        let b = Slab.block_index e.Tcache.slab e.Tcache.addr in
        fst (Bitmap.bit_location s.Slab.bitmap b))
      pops
  in
  let rec windows = function
    | a :: b :: c :: d :: rest ->
        List.length (List.sort_uniq compare [ a; b; c; d ]) = 4
        && windows (b :: c :: d :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "rotation yields distinct lines" true (windows lines)

let prop_tcache_conserves_entries =
  let open QCheck in
  Test.make ~name:"tcache pops exactly what was pushed" ~count:100
    (make Gen.(pair (int_range 1 8) (list_size (int_range 1 80) (int_range 0 200))))
    (fun (nsub, blocks) ->
      let dev = mk_dev () in
      let s = mk_slab dev in
      let blocks = List.filter (fun b -> b < s.Slab.layout.Slab.nblocks) blocks in
      let tc = Tcache.create ~class_idx:2 ~capacity:1000 ~nsub in
      List.iter
        (fun b -> ignore (Tcache.push tc { Tcache.slab = s; addr = Slab.block_addr s b }))
        blocks;
      let popped = ref [] in
      let rec drain () =
        match Tcache.pop tc with
        | Some e ->
            popped := Slab.block_index e.Tcache.slab e.Tcache.addr :: !popped;
            drain ()
        | None -> ()
      in
      drain ();
      List.sort compare !popped = List.sort compare blocks)

let suite =
  [
    Alcotest.test_case "size-class table shape" `Quick test_size_class_table;
    QCheck_alcotest.to_alcotest prop_size_class_fits;
    QCheck_alcotest.to_alcotest prop_classes_monotone;
    QCheck_alcotest.to_alcotest prop_layout_sound;
    Alcotest.test_case "format + recover roundtrip" `Quick test_format_and_recover;
    Alcotest.test_case "crash inside a morph undo" `Quick test_morph_undo_crash_ordering;
    QCheck_alcotest.to_alcotest prop_index_entry_roundtrip;
    Alcotest.test_case "block addr/index roundtrip" `Quick test_block_addr_roundtrip;
    Alcotest.test_case "tcache capacity and drain" `Quick test_tcache_fifo_capacity;
    Alcotest.test_case "tcache rotation avoids lines" `Quick test_tcache_rotation_avoids_lines;
    QCheck_alcotest.to_alcotest prop_tcache_conserves_entries;
  ]
