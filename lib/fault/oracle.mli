(** The post-crash invariant oracle.

    One checker consolidates the properties the crash tests used to
    duplicate (crash sweep, morph-undo, internal-collection sweep). Given
    a device that just crashed (or stopped mid-recovery), {!check}
    recovers it and requires, in order:

    + {b owner-index disjointness} — no two owners overlap;
    + {b root reachability} — every published root slot resolves to an
      owned block and can be freed; under NVAlloc-LOG and NVAlloc-IC that
      block must also be live ({!Nvalloc_core.Nvalloc.is_allocated}).
      NVAlloc-GC is exempt: its conservative mark tolerates resurrection
      aliasing, so a root there can name a block that is not live on its
      own;
    + {b leak-freedom} — after freeing everything reachable (plus, for
      NVAlloc-IC, the application-side orphan resolution via
      [iter_allocated]), a clean shutdown and re-open finds a [Shutdown]
      heap with zero allocated small blocks;
    + {b usability} — the recovered heap serves fresh allocations.

    A failure is rendered with the stage that failed and the recovery
    report's diagnostics, so a fuzzer counterexample is explainable. *)

val check :
  config:Nvalloc_core.Config.t ->
  Pmem.Device.t ->
  Sim.Clock.t ->
  (Nvalloc_core.Nvalloc.recovery_report, string) result
(** Run the full oracle. [Ok report] is the report of the {e first}
    recovery; [Error msg] names the violated invariant (any exception is
    caught and rendered too). The device contents are consumed: the heap
    ends recovered, emptied and probed. *)
