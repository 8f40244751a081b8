(* Crash-consistency of [Tm.checkpoint] itself, in every configuration.

   The cache-consistent checkpoint (Section 4.6) runs with transactions
   still in flight, and its clearing/compaction steps rewrite the log in
   place — so a crash *inside* the checkpoint is the hardest recovery
   case this codebase has: the CHECKPOINT record may or may not be
   durable, settled transactions' records may be half-removed, and
   compaction may have copied part of the log into a fresh chain.

   Two attacks:

   1. an exhaustive sweep that arms a crash at every single persistence
      event (non-temporal store or line write-back) inside the
      checkpoint, recovers, and checks full cell-level state — committed
      values intact, live transaction undone.  This is the regression
      test for the clearing-order bug: removing settled transactions'
      records per-transaction instead of in global LSN order let a crash
      mid-clearing resurrect stale values through redo (a committed
      overwrite's record could outlive the overwriting record, losing
      the later value).

   2. the crash-state enumerator over a small commit/checkpoint trace,
      with the persistency sanitizer attached, which additionally
      explores the cache states (which dirty lines survived) at every
      fence boundary inside the checkpoint. *)

open Rewind_nvm
open Rewind
module Enum = Rewind_analysis.Enumerator
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios

let root_slot = 2

let all_configs =
  [
    ("1l-nfp", Rewind.config_1l_nfp);
    ("1l-fp", Rewind.config_1l_fp);
    ("2l-nfp", Rewind.config_2l_nfp);
    ("2l-fp", Rewind.config_2l_fp);
    ("simple", Rewind.config_simple);
    ("batch8", Rewind.config_batch ());
  ]

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* 1. Crash at every persistence event inside the checkpoint           *)
(* ------------------------------------------------------------------ *)

(* Small buckets so the checkpoint's clearing pass leaves sparse buckets
   behind and its compaction step actually runs. *)
let setup cfg =
  let cfg = { cfg with Tm.bucket_cap = 8 } in
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cells = Array.init 16 (fun _ -> Alloc.alloc alloc 8) in
  (arena, tm, cells, cfg)

(* Four committed transactions overwriting a shared working set (so the
   log holds several records per cell, in LSN order), plus one left in
   flight.  Cells 8..10 belong to the live transaction and must recover
   to zero. *)
let workload tm cells =
  let expected = Array.make 16 0L in
  for tno = 1 to 4 do
    let txn = Tm.begin_txn tm in
    for i = 0 to 2 do
      let c = (tno + i) mod 8 in
      let v = Int64.of_int ((tno * 100) + i) in
      Tm.write tm txn ~addr:cells.(c) ~value:v;
      expected.(c) <- v
    done;
    Tm.commit tm txn
  done;
  let live = Tm.begin_txn tm in
  for i = 0 to 2 do
    Tm.write tm live ~addr:cells.(i + 8) ~value:(Int64.of_int (9990 + i))
  done;
  expected

let test_crash_sweep (name, cfg0) () =
  (* Dry run: prove the sweep's coverage claims — under no-force the
     clearing pass has settled records to remove, and for the bucketed
     no-force configs the occupancy drops far enough that compaction
     rewrites the log (so the sweep includes crash points after the
     CHECKPOINT record, mid-clearing and mid-compaction). *)
  let _, tm, cells, _ = setup cfg0 in
  let _ = workload tm cells in
  let log_before = Log.length (Tm.log tm) in
  let recs_before = List.sort compare (Log.records (Tm.log tm)) in
  Tm.checkpoint tm;
  let recs_after = List.sort compare (Log.records (Tm.log tm)) in
  (* two-layer configs keep user records in the AVL index rather than the
     bucket log, so the log-shape claims only apply to one-layer *)
  if cfg0.Tm.policy = Tm.No_force && cfg0.Tm.layers = Tm.One_layer then begin
    check_bool (name ^ ": clearing had records to remove") true
      (log_before > Log.length (Tm.log tm));
    if cfg0.Tm.variant <> Log.Simple then
      check_bool (name ^ ": compaction moved the live records") true
        (recs_after <> [] && recs_after <> recs_before)
  end;
  (* The sweep proper: crash at every event of the checkpoint; committed
     values intact, the live transaction's cells (8..10) undone. *)
  let s =
    Harness.every_event
      (Scenarios.tm_cells ~size_bytes:(32 lsl 20) ~n:16
         { cfg0 with Tm.bucket_cap = 8 }
         ~prepare:workload
         ~window:(fun tm _ _ -> Tm.checkpoint tm)
         ~check:(fun expected _ got ->
           Scenarios.expect_cells
             (fun c -> if c >= 8 then 0L else expected.(c))
             got))
  in
  check_bool (name ^ ": sweep hit crash points") true (s.Harness.crash_points > 0)

(* ------------------------------------------------------------------ *)
(* 2. Enumerated crash states through a checkpoint, sanitizer attached *)
(* ------------------------------------------------------------------ *)

(* Two one-write committed transactions and one in flight, then a
   checkpoint.  Commit order pins the legal recovered states: b=9
   implies a=7 (t2's END cannot be durable before t1's), and the live
   write to c must always be undone. *)
let test_enumerate_checkpoint (name, cfg0) () =
  let cfg = { cfg0 with Tm.bucket_cap = 4 } in
  let stats =
    Harness.every_fence_subset
      {
        Harness.setup =
          (fun () ->
            let arena = Arena.create ~size_bytes:(1 lsl 20) () in
            let alloc = Alloc.create arena in
            let tm = Tm.create ~cfg alloc ~root_slot in
            (arena, tm, Array.init 3 (fun _ -> Alloc.alloc ~align:64 alloc 8)));
        arenas = (fun (arena, _, _) -> [| arena |]);
        window =
          (fun (_, tm, cells) ->
            let t1 = Tm.begin_txn tm in
            Tm.write tm t1 ~addr:cells.(0) ~value:7L;
            Tm.commit tm t1;
            let t2 = Tm.begin_txn tm in
            Tm.write tm t2 ~addr:cells.(1) ~value:9L;
            Tm.commit tm t2;
            let live = Tm.begin_txn tm in
            Tm.write tm live ~addr:cells.(2) ~value:11L;
            Tm.checkpoint tm);
        recover =
          (fun (_, _, cells) crashed ->
            ignore (Tm.attach ~cfg (Alloc.recover crashed) ~root_slot);
            Array.map (Arena.read crashed) cells);
        check =
          (fun _ v ->
            if v.(2) <> 0L then Some (Fmt.str "live txn not undone: c = %Ld" v.(2))
            else
              match (v.(0), v.(1)) with
              | 0L, 0L | 7L, 0L | 7L, 9L -> None
              | va, vb -> Some (Fmt.str "illegal state a=%Ld b=%Ld" va vb));
      }
  in
  check_bool
    (name ^ ": enumeration reached inside the checkpoint")
    true
    (stats.Enum.capture_points > 3);
  check_bool (name ^ ": crash states explored") true (stats.Enum.crash_states > 0)

(* ------------------------------------------------------------------ *)

let () =
  let per_config name speed f =
    List.map
      (fun (cn, cfg) ->
        Alcotest.test_case (Fmt.str "%s [%s]" name cn) speed (f (cn, cfg)))
      all_configs
  in
  Alcotest.run "checkpoint"
    [
      ( "crash-sweep",
        per_config "crash at every persistence event" `Quick test_crash_sweep );
      ( "enumerator",
        per_config "enumerated states through checkpoint" `Quick
          test_enumerate_checkpoint );
    ]
