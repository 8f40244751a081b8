(* Tests for the extensions beyond the paper's core: log compaction
   (Section 3.3) and partial rollback via savepoints. *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios
open Support

(* ------------------------------------------------------------------ *)
(* Log compaction                                                      *)
(* ------------------------------------------------------------------ *)

let mk_record alloc ~lsn ~txn =
  Record.make alloc ~lsn ~txn ~typ:Record.Update ~addr:(8 * lsn) ~old_value:0L
    ~new_value:(Int64.of_int lsn) ~undo_next:0 ~prev_same_txn:0

let test_compact_squeezes_gaps () =
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let log = Log.create Log.Optimized ~bucket_cap:10 alloc ~root_slot in
  for i = 1 to 200 do
    append log (mk_record alloc ~lsn:i ~txn:(i mod 5))
  done;
  (* clear four of five transactions: 80 % gaps *)
  Log.remove_where log (fun r -> Record.txn arena r <> 1);
  let live_before, slots_before = Log.occupancy_stats log in
  check_bool "mostly gaps" true (float_of_int live_before /. float_of_int slots_before < 0.5);
  Log.compact log;
  let live_after, slots_after = Log.occupancy_stats log in
  check_int "no record lost" live_before live_after;
  check_bool "dense after compaction" true
    (float_of_int live_after /. float_of_int slots_after > 0.9);
  (* order preserved *)
  let lsns = List.map (Record.lsn arena) (Log.records log) in
  check_bool "ascending order preserved" true (lsns = List.sort compare lsns)

let test_compact_noop_when_dense () =
  let arena = Arena.create ~size_bytes:(32 lsl 20) () in
  let alloc = Alloc.create arena in
  let log = Log.create Log.Optimized ~bucket_cap:10 alloc ~root_slot in
  for i = 1 to 50 do
    append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  let before = Log.records log in
  Log.compact log;
  Alcotest.(check (list int)) "untouched" before (Log.records log);
  ignore arena

let test_compact_survives_crash () =
  (* crash at every point during a compaction: recovery must find either
     the old (gappy) or the new (dense) log, with the same live records *)
  ignore
    (Harness.every_event
       {
         Harness.setup =
           (fun () ->
             let arena = Arena.create ~size_bytes:(32 lsl 20) () in
             let alloc = Alloc.create arena in
             let log = Log.create Log.Optimized ~bucket_cap:8 alloc ~root_slot in
             for i = 1 to 64 do
               append log (mk_record alloc ~lsn:i ~txn:(i mod 4))
             done;
             Log.remove_where log (fun r -> Record.txn arena r <> 1);
             (arena, log, List.map (Record.lsn arena) (Log.records log)));
         arenas = (fun (arena, _, _) -> [| arena |]);
         window = (fun (_, log, _) -> Log.compact log);
         recover =
           (fun _ arena ->
             let log2 =
               Log.attach Log.Optimized ~bucket_cap:8 (Alloc.recover arena)
                 ~root_slot
             in
             List.map (Record.lsn arena) (Log.records log2));
         check =
           (fun (_, _, expect) got ->
             if got = expect then None
             else
               Some
                 (Fmt.str "records changed ([%a] vs [%a])"
                    Fmt.(list ~sep:semi int)
                    got
                    Fmt.(list ~sep:semi int)
                    expect));
       })

let test_checkpoint_triggers_compaction () =
  (* a long-running transaction pins records across buckets while others
     clear: the checkpoint's compaction keeps the slot count bounded *)
  let _, alloc, tm =
    fresh ~size_bytes:(32 lsl 20)
      ~cfg:{ Rewind.config_1l_nfp with bucket_cap = 16 }
      ()
  in
  let cell = Alloc.alloc alloc 8 in
  let long = Tm.begin_txn tm in
  Tm.write tm long ~addr:cell ~value:1L;
  for _ = 1 to 50 do
    Tm.atomically tm (fun txn -> Tm.write tm txn ~addr:cell ~value:9L)
  done;
  Tm.write tm long ~addr:cell ~value:2L;
  Tm.checkpoint tm;
  let live, slots = Log.occupancy_stats (Tm.log tm) in
  check_bool "compacted around the long transaction" true (slots <= 4 * max 1 live);
  Tm.commit tm long

(* ------------------------------------------------------------------ *)
(* Savepoints / partial rollback                                       *)
(* ------------------------------------------------------------------ *)

(* The partitioned entries roll back to a savepoint in a home partition
   other than 0 (the second transaction of
   [test_savepoint_then_full_rollback]). *)
let savepoint_configs =
  configs [ "1l-nfp"; "1l-fp"; "2l-nfp"; "1l-nfp-p2"; "2l-nfp-p4" ]

let test_savepoint_basic cfg () =
  let arena, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg () in
  let a = Alloc.alloc alloc 8 and b = Alloc.alloc alloc 8 in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:a ~value:1L;
  let sp = Tm.savepoint tm txn in
  Tm.write tm txn ~addr:a ~value:2L;
  Tm.write tm txn ~addr:b ~value:3L;
  Tm.rollback_to tm txn sp;
  check_i64 "a back to pre-savepoint" 1L (Arena.read arena a);
  check_i64 "b undone" 0L (Arena.read arena b);
  (* the transaction continues and commits *)
  Tm.write tm txn ~addr:b ~value:7L;
  Tm.commit tm txn;
  check_i64 "pre-savepoint survives" 1L (Arena.read arena a);
  check_i64 "post-rollback write survives" 7L (Arena.read arena b)

let test_savepoint_nested cfg () =
  let arena, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg () in
  let a = Alloc.alloc alloc 8 in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:a ~value:1L;
  let sp1 = Tm.savepoint tm txn in
  Tm.write tm txn ~addr:a ~value:2L;
  let sp2 = Tm.savepoint tm txn in
  Tm.write tm txn ~addr:a ~value:3L;
  Tm.rollback_to tm txn sp2;
  check_i64 "inner rollback" 2L (Arena.read arena a);
  Tm.rollback_to tm txn sp1;
  check_i64 "outer rollback" 1L (Arena.read arena a);
  Tm.commit tm txn;
  check_i64 "committed" 1L (Arena.read arena a)

let test_savepoint_then_full_rollback cfg () =
  let arena, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg () in
  let a = Alloc.alloc alloc 8 in
  Tm.atomically tm (fun txn -> Tm.write tm txn ~addr:a ~value:5L);
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:a ~value:6L;
  let sp = Tm.savepoint tm txn in
  Tm.write tm txn ~addr:a ~value:7L;
  Tm.rollback_to tm txn sp;
  Tm.write tm txn ~addr:a ~value:8L;
  Tm.rollback tm txn;
  check_i64 "full rollback to committed state" 5L (Arena.read arena a)

(* A fresh manager over three cells, [prepare] run on it, [window] as
   the crash window; recovery must leave the cells at [want]. *)
let savepoint_scenario cfg ~prepare ~window ~want =
  Scenarios.tm_cells ~size_bytes:(32 lsl 20) ~n:3 cfg ~prepare ~window
    ~check:(fun _ _ got -> Scenarios.expect_cells (Array.get want) got)

(* Run [s]'s window to completion, then power-fail and recover. *)
let crash_after_window s =
  let w = s.Harness.setup () in
  s.window w;
  Array.iter Arena.crash (s.arenas w);
  ignore (Harness.recover_checked s w)

let test_savepoint_crash_after_partial cfg () =
  (* crash after a partial rollback: the whole transaction is undone and
     the partial rollback's CLRs don't confuse recovery *)
  let s =
    savepoint_scenario cfg
      ~prepare:(fun tm c ->
        Tm.atomically tm (fun txn -> Tm.write tm txn ~addr:c.(0) ~value:10L))
      ~window:(fun tm c () ->
        let txn = Tm.begin_txn tm in
        Tm.write tm txn ~addr:c.(0) ~value:11L;
        let sp = Tm.savepoint tm txn in
        Tm.write tm txn ~addr:c.(0) ~value:12L;
        Tm.write tm txn ~addr:c.(1) ~value:13L;
        Tm.rollback_to tm txn sp;
        Tm.write tm txn ~addr:c.(1) ~value:14L)
      ~want:[| 10L; 0L; 0L |]
  in
  ignore (Harness.every_event s);
  (* completed without crash: the still-open transaction must roll back
     at recovery after a power failure *)
  crash_after_window s

let test_rollback_to_crosses_crash cfg () =
  (* crash at every persistence event *during* a partial rollback:
     recovery must settle at the transaction start (crashed while open)
     or, if the rollback completed and the transaction committed, at the
     savepoint state — never at an intermediate post-savepoint state *)
  let prepare tm c =
    Tm.atomically tm (fun txn ->
        Tm.write tm txn ~addr:c.(0) ~value:1L;
        Tm.write tm txn ~addr:c.(1) ~value:2L);
    let txn = Tm.begin_txn tm in
    Tm.write tm txn ~addr:c.(0) ~value:10L;
    let sp = Tm.savepoint tm txn in
    Tm.write tm txn ~addr:c.(0) ~value:20L;
    Tm.write tm txn ~addr:c.(1) ~value:21L;
    Tm.write tm txn ~addr:c.(2) ~value:22L;
    (txn, sp)
  in
  ignore
    (Harness.every_event
       (savepoint_scenario cfg ~prepare
          ~window:(fun tm _ (txn, sp) -> Tm.rollback_to tm txn sp)
          ~want:[| 1L; 2L; 0L |]));
  crash_after_window
    (savepoint_scenario cfg ~prepare
       ~window:(fun tm _ (txn, sp) ->
         Tm.rollback_to tm txn sp;
         Tm.commit tm txn)
       ~want:[| 10L; 2L; 0L |])

let test_savepoint_drops_deletes () =
  let _, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg:Rewind.config_1l_fp () in
  let region = Alloc.alloc alloc 48 in
  let txn = Tm.begin_txn tm in
  let sp = Tm.savepoint tm txn in
  Tm.log_delete tm txn ~addr:region ~size:48;
  Tm.rollback_to tm txn sp;
  Tm.commit tm txn;
  (* the delete was requested after the savepoint: commit must not free *)
  let o = Alloc.alloc alloc 48 in
  check_bool "region not reused" true (o <> region)

let () =
  let tc = Alcotest.test_case in
  let per_cfg name f =
    List.map (fun (cn, cfg) -> tc (name ^ " [" ^ cn ^ "]") `Quick (f cfg))
      savepoint_configs
  in
  Alcotest.run "extensions"
    [
      ( "compaction",
        [
          tc "squeezes gaps" `Quick test_compact_squeezes_gaps;
          tc "noop when dense" `Quick test_compact_noop_when_dense;
          tc "crash during compaction" `Slow test_compact_survives_crash;
          tc "checkpoint triggers it" `Quick test_checkpoint_triggers_compaction;
        ] );
      ( "savepoints",
        per_cfg "basic" test_savepoint_basic
        @ per_cfg "nested" test_savepoint_nested
        @ per_cfg "then full rollback" test_savepoint_then_full_rollback
        @ [
            tc "crash after partial [1l-nfp]" `Slow
              (test_savepoint_crash_after_partial Rewind.config_1l_nfp);
            tc "crash after partial [1l-fp]" `Slow
              (test_savepoint_crash_after_partial Rewind.config_1l_fp);
            tc "drops post-savepoint deletes" `Quick test_savepoint_drops_deletes;
          ]
        @ List.map
            (fun (cn, cfg) ->
              tc
                ("rollback_to crosses crash [" ^ cn ^ "]")
                `Slow
                (test_rollback_to_crosses_crash cfg))
            Scenarios.wal_configs );
    ]
