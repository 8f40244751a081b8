(* Transaction-manager tests: atomicity and durability across the paper's
   four configurations (1L/2L x force/no-force) and three log variants,
   with crash injection at arbitrary and exhaustive points, double-crash
   recovery, checkpointing, and a randomized workload-vs-model property. *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios

let all_configs =
  [
    ("1L-NFP", Rewind.config_1l_nfp);
    ("1L-FP", Rewind.config_1l_fp);
    ("2L-NFP", Rewind.config_2l_nfp);
    ("2L-FP", Rewind.config_2l_fp);
    ("1L-NFP-simple", { Rewind.config_1l_nfp with variant = Log.Simple });
    ("1L-NFP-batch", { Rewind.config_1l_nfp with variant = Log.Batch 8 });
    ("1L-FP-batch", { Rewind.config_1l_fp with variant = Log.Batch 8 });
  ]

let root_slot = 2

let fresh cfg =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  (arena, alloc, tm)

(* Ten word-sized cells of user data. *)
let cells alloc = Array.init 10 (fun _ -> Alloc.alloc alloc 8)

let reattach cfg arena =
  let alloc = Alloc.recover arena in
  Tm.attach ~cfg alloc ~root_slot

let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Basic transactional behaviour (no crash)                            *)
(* ------------------------------------------------------------------ *)

let test_commit_visible cfg () =
  let arena, alloc, tm = fresh cfg in
  let c = cells alloc in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:c.(0) ~value:11L;
  Tm.write tm txn ~addr:c.(1) ~value:22L;
  Tm.commit tm txn;
  check_i64 "cell 0" 11L (Arena.read arena c.(0));
  check_i64 "cell 1" 22L (Arena.read arena c.(1))

let test_rollback_restores cfg () =
  let arena, alloc, tm = fresh cfg in
  let c = cells alloc in
  let t1 = Tm.begin_txn tm in
  Tm.write tm t1 ~addr:c.(0) ~value:5L;
  Tm.commit tm t1;
  let t2 = Tm.begin_txn tm in
  Tm.write tm t2 ~addr:c.(0) ~value:99L;
  Tm.write tm t2 ~addr:c.(1) ~value:88L;
  check_i64 "visible before rollback" 99L (Arena.read arena c.(0));
  Tm.rollback tm t2;
  check_i64 "cell 0 restored" 5L (Arena.read arena c.(0));
  check_i64 "cell 1 restored" 0L (Arena.read arena c.(1))

let test_rollback_multiple_writes_same_cell cfg () =
  let arena, alloc, tm = fresh cfg in
  let c = cells alloc in
  let t = Tm.begin_txn tm in
  Tm.write tm t ~addr:c.(0) ~value:1L;
  Tm.write tm t ~addr:c.(0) ~value:2L;
  Tm.write tm t ~addr:c.(0) ~value:3L;
  Tm.rollback tm t;
  check_i64 "back to initial" 0L (Arena.read arena c.(0))

let test_interleaved_txns cfg () =
  let arena, alloc, tm = fresh cfg in
  let c = cells alloc in
  let t1 = Tm.begin_txn tm in
  let t2 = Tm.begin_txn tm in
  Tm.write tm t1 ~addr:c.(0) ~value:1L;
  Tm.write tm t2 ~addr:c.(1) ~value:2L;
  Tm.write tm t1 ~addr:c.(2) ~value:3L;
  Tm.commit tm t1;
  Tm.rollback tm t2;
  check_i64 "t1 cell kept" 1L (Arena.read arena c.(0));
  check_i64 "t2 cell undone" 0L (Arena.read arena c.(1));
  check_i64 "t1 second cell kept" 3L (Arena.read arena c.(2))

let test_atomically cfg () =
  let arena, alloc, tm = fresh cfg in
  let c = cells alloc in
  Tm.atomically tm (fun txn -> Tm.write tm txn ~addr:c.(0) ~value:7L);
  check_i64 "committed" 7L (Arena.read arena c.(0));
  (try
     Tm.atomically tm (fun txn ->
         Tm.write tm txn ~addr:c.(0) ~value:8L;
         failwith "boom")
   with Failure _ -> ());
  check_i64 "rolled back on exception" 7L (Arena.read arena c.(0))

(* Force policy clears the log at commit; no-force leaves it to checkpoints. *)
let test_force_clears_log cfg () =
  let _, alloc, tm = fresh cfg in
  let c = cells alloc in
  let t = Tm.begin_txn tm in
  Tm.write tm t ~addr:c.(0) ~value:1L;
  Tm.commit tm t;
  match (cfg.Rewind.policy, cfg.Rewind.layers) with
  | Tm.Force, Tm.One_layer ->
      Alcotest.(check int) "log empty after commit" 0 (Log.length (Tm.log tm))
  | Tm.No_force, Tm.One_layer ->
      check_bool "log retains records" true (Log.length (Tm.log tm) > 0)
  | _, Tm.Two_layer -> ()

let test_checkpoint_clears cfg () =
  let _, alloc, tm = fresh cfg in
  let c = cells alloc in
  for i = 0 to 4 do
    let t = Tm.begin_txn tm in
    Tm.write tm t ~addr:c.(i) ~value:(Int64.of_int i);
    Tm.commit tm t
  done;
  Tm.checkpoint tm;
  match cfg.Rewind.layers with
  | Tm.One_layer ->
      Alcotest.(check int) "log empty after checkpoint" 0 (Log.length (Tm.log tm))
  | Tm.Two_layer -> ()

(* ------------------------------------------------------------------ *)
(* Crash + recovery                                                    *)
(* ------------------------------------------------------------------ *)

let test_committed_survives_crash cfg () =
  let arena, alloc, tm = fresh cfg in
  let c = cells alloc in
  let t = Tm.begin_txn tm in
  Tm.write tm t ~addr:c.(0) ~value:42L;
  Tm.write tm t ~addr:c.(1) ~value:43L;
  Tm.commit tm t;
  Arena.crash arena;
  let _tm2 = reattach cfg arena in
  check_i64 "cell 0 durable" 42L (Arena.read arena c.(0));
  check_i64 "cell 1 durable" 43L (Arena.read arena c.(1))

let test_uncommitted_rolled_back cfg () =
  let arena, alloc, tm = fresh cfg in
  let c = cells alloc in
  let t1 = Tm.begin_txn tm in
  Tm.write tm t1 ~addr:c.(0) ~value:1L;
  Tm.commit tm t1;
  let t2 = Tm.begin_txn tm in
  Tm.write tm t2 ~addr:c.(0) ~value:66L;
  Tm.write tm t2 ~addr:c.(1) ~value:77L;
  (* no commit *)
  Arena.crash arena;
  let _tm2 = reattach cfg arena in
  check_i64 "cell 0 back to committed value" 1L (Arena.read arena c.(0));
  check_i64 "cell 1 back to zero" 0L (Arena.read arena c.(1))

(* A fresh manager over ten cells, [prepare] run on it (its result is
   handed to the window), then [window] as the crash window.  [allowed]
   lists the legal recovered outcomes, each as (cell, value) pairs. *)
let scenario cfg ~prepare ~window ~allowed =
  Scenarios.tm_cells cfg ~prepare ~window ~check:(fun _ _ v ->
      if List.exists (List.for_all (fun (i, e) -> v.(i) = e)) allowed then None
      else
        Some
          (Fmt.str "cells [%a] match no allowed outcome"
             Fmt.(array ~sep:semi int64)
             v))

let commit_one tm c cell v =
  let t = Tm.begin_txn tm in
  Tm.write tm t ~addr:c.(cell) ~value:v;
  Tm.commit tm t

let test_crash_mid_rollback cfg () =
  (* Crash during an explicit rollback; recovery must complete the undo. *)
  let s =
    Harness.every_event
      (scenario cfg
         ~prepare:(fun tm c ->
           commit_one tm c 0 1L;
           let t2 = Tm.begin_txn tm in
           Tm.write tm t2 ~addr:c.(0) ~value:50L;
           Tm.write tm t2 ~addr:c.(1) ~value:60L;
           t2)
         ~window:(fun tm _ t2 -> Tm.rollback tm t2)
         ~allowed:[ [ (0, 1L); (1, 0L) ] ])
  in
  check_bool "exercised crash points" true (s.Harness.crash_points > 0)

let test_crash_mid_commit_atomic cfg () =
  (* Crash at every point of commit: afterwards the transaction is either
     fully applied or fully undone. *)
  ignore
    (Harness.every_event
       (scenario cfg
          ~prepare:(fun tm c ->
            let t = Tm.begin_txn tm in
            Tm.write tm t ~addr:c.(0) ~value:10L;
            Tm.write tm t ~addr:c.(1) ~value:20L;
            t)
          ~window:(fun tm _ t -> Tm.commit tm t)
          ~allowed:[ [ (0, 10L); (1, 20L) ]; [ (0, 0L); (1, 0L) ] ]))

let test_double_crash_recovery cfg () =
  (* Crash during recovery itself, repeatedly, until a recovery
     completes; that recovery must still yield a consistent state. *)
  ignore
    (Harness.recovery_chain
       (scenario cfg
          ~prepare:(fun tm c -> commit_one tm c 0 5L)
          ~window:(fun tm c () ->
            let t2 = Tm.begin_txn tm in
            Tm.write tm t2 ~addr:c.(0) ~value:70L;
            Tm.write tm t2 ~addr:c.(1) ~value:80L)
          ~allowed:[ [ (0, 5L); (1, 0L) ] ]))

let test_crash_after_checkpoint cfg () =
  let arena, alloc, tm = fresh cfg in
  let c = cells alloc in
  let t1 = Tm.begin_txn tm in
  Tm.write tm t1 ~addr:c.(0) ~value:1L;
  Tm.commit tm t1;
  Tm.checkpoint tm;
  let t2 = Tm.begin_txn tm in
  Tm.write tm t2 ~addr:c.(1) ~value:2L;
  Tm.commit tm t2;
  let t3 = Tm.begin_txn tm in
  Tm.write tm t3 ~addr:c.(2) ~value:3L;
  Arena.crash arena;
  let _tm2 = reattach cfg arena in
  check_i64 "pre-checkpoint commit" 1L (Arena.read arena c.(0));
  check_i64 "post-checkpoint commit" 2L (Arena.read arena c.(1));
  check_i64 "in-flight rolled back" 0L (Arena.read arena c.(2))

let test_crash_mid_checkpoint cfg () =
  ignore
    (Harness.every_event
       (scenario cfg
          ~prepare:(fun tm c ->
            commit_one tm c 0 9L;
            let t2 = Tm.begin_txn tm in
            Tm.write tm t2 ~addr:c.(1) ~value:33L)
          ~window:(fun tm _ () -> Tm.checkpoint tm)
          ~allowed:[ [ (0, 9L); (1, 0L) ] ]))

(* The deleted region is reusable only after the transaction's outcome is
   settled: its offset reappears from the (size=48, align=8) free list. *)
let delete_region_size = 48

let region_reusable alloc region =
  let o = Alloc.alloc alloc delete_region_size in
  let reused = o = region in
  Alloc.free alloc o delete_region_size;
  reused

let test_delete_deferred cfg () =
  let arena, alloc, tm = fresh cfg in
  let region = Alloc.alloc alloc delete_region_size in
  Arena.nt_write arena region 123L;
  let t = Tm.begin_txn tm in
  Tm.log_delete tm t ~addr:region ~size:delete_region_size;
  check_bool "not reusable before settling" false (region_reusable alloc region);
  Tm.commit tm t;
  (match cfg.Rewind.policy with
  | Tm.Force -> check_bool "freed at commit" true (region_reusable alloc region)
  | Tm.No_force ->
      check_bool "not freed before checkpoint" false
        (region_reusable alloc region);
      Tm.checkpoint tm;
      check_bool "freed at checkpoint" true (region_reusable alloc region))

let test_rollback_drops_delete cfg () =
  let _, alloc, tm = fresh cfg in
  let region = Alloc.alloc alloc delete_region_size in
  let t = Tm.begin_txn tm in
  Tm.log_delete tm t ~addr:region ~size:delete_region_size;
  Tm.rollback tm t;
  (match cfg.Rewind.policy with
  | Tm.No_force -> Tm.checkpoint tm
  | Tm.Force -> ());
  check_bool "rollback never frees" false (region_reusable alloc region)

(* ------------------------------------------------------------------ *)
(* Randomized workload vs model                                        *)
(* ------------------------------------------------------------------ *)

(* Execute a sequence of transactions with a crash at a random persistence
   event.  After recovery, every cell must hold its last-committed value —
   except that a transaction whose commit call was interrupted may
   legitimately be either committed or rolled back (its END record may or
   may not have persisted); both outcomes must be atomic. *)
let prop_crash_consistency (name, cfg) =
  QCheck.Test.make
    ~name:(Fmt.str "%s: crash consistency vs model" name)
    ~count:120
    QCheck.(pair (int_bound 1500) (list_of_size (Gen.int_range 1 12)
            (list_of_size (Gen.int_range 1 5) (pair (int_bound 9) (int_range 1 100)))))
    (fun (crash_after, txns) ->
      let committed = Array.make 10 0L in  (* model *)
      let in_flight = Hashtbl.create 4 in  (* txn writes of interrupted commit *)
      let run tm c () =
        Array.fill committed 0 10 0L;
        Hashtbl.reset in_flight;
        List.iter
          (fun writes ->
            let txn = Tm.begin_txn tm in
            let mine = Hashtbl.create 4 in
            Hashtbl.reset in_flight;
            List.iter
              (fun (cell, v) ->
                let v = Int64.of_int v in
                Tm.write tm txn ~addr:c.(cell) ~value:v;
                Hashtbl.replace mine cell v)
              writes;
            (* commit may crash mid-way: remember what it would change *)
            Hashtbl.iter (fun k v -> Hashtbl.replace in_flight k v) mine;
            Tm.commit tm txn;
            Hashtbl.reset in_flight;
            Hashtbl.iter (fun k v -> committed.(k) <- v) mine)
          txns
      in
      let s = scenario cfg ~prepare:(fun _ _ -> ()) ~window:run ~allowed:[] in
      (* Either the interrupted commit took effect entirely, or not at all. *)
      let as_flight i =
        Option.value (Hashtbl.find_opt in_flight i) ~default:committed.(i)
      in
      let check _ (_, v) =
        let matches model =
          Array.for_all Fun.id (Array.mapi (fun i x -> x = model i) v)
        in
        if matches (Array.get committed) || matches as_flight then None
        else Some "recovered state is neither the committed nor the in-flight model"
      in
      ignore (Harness.crash_once { s with check } ~after:crash_after);
      true)

(* ------------------------------------------------------------------ *)
(* Misuse errors: one typed constructor per class                      *)
(* ------------------------------------------------------------------ *)

(* [f] must raise [Tm.Error] matching [is], and the registered printer
   must render the diagnostic text. *)
let expect_error ~is f () =
  match f () with
  | _ -> Alcotest.fail "expected Tm.Error"
  | exception (Tm.Error e as exn) ->
      check_bool "constructor" true (is e);
      Alcotest.(check string) "printer renders the message" (Tm.error_message e)
        (Printexc.to_string exn)

let crashed_alloc () =
  let arena, _, _ = fresh Rewind.config_1l_nfp in
  Arena.crash arena;
  Alloc.recover arena

let on_fresh cfg f () = f (let _, _, tm = fresh cfg in tm)

let error_cases =
  let tc name is f = Alcotest.test_case name `Quick (expect_error ~is f) in
  [
    tc "invalid config"
      (( = ) (Tm.Invalid_config "config.partitions must be at least 1"))
      (fun () -> fresh { Rewind.config_1l_nfp with partitions = 0 });
    tc "no fingerprint"
      (( = ) (Tm.No_fingerprint { root_slot = 10 }))
      (fun () -> Tm.attach (crashed_alloc ()) ~root_slot:10);
    tc "not a fingerprint"
      (( = ) (Tm.Not_a_fingerprint { root_slot = 12; found = 0xDEAD }))
      (fun () ->
        let alloc = crashed_alloc () in
        Arena.root_set (Alloc.arena alloc) 12 0xDEADL;
        Tm.attach alloc ~root_slot:12);
    tc "fingerprint mismatch"
      (function Tm.Fingerprint_mismatch { root_slot = 2; _ } -> true | _ -> false)
      (fun () -> Tm.attach ~cfg:Rewind.config_1l_fp (crashed_alloc ()) ~root_slot);
    tc "WAL only"
      (( = ) (Tm.Wal_only "Tm.log"))
      (on_fresh Rewind.config_incll Tm.log);
    tc "InCLL only"
      (( = ) (Tm.Incll_only "Tm.advance_epoch"))
      (on_fresh Rewind.config_1l_nfp Tm.advance_epoch);
    tc "home out of range"
      (( = ) (Tm.Home_out_of_range { home = 1; partitions = 1 }))
      (on_fresh Rewind.config_1l_nfp (Tm.begin_txn ~home:1));
    tc "not in doubt"
      (( = ) (Tm.Not_in_doubt 1))
      (on_fresh Rewind.config_1l_nfp (fun tm ->
           Tm.resolve_in_doubt tm (Tm.begin_txn tm) ~commit:true));
  ]

let () =
  let tc = Alcotest.test_case in
  let per_config name speed f =
    List.map (fun (cn, cfg) -> tc (name ^ " [" ^ cn ^ "]") speed (f cfg)) all_configs
  in
  Alcotest.run "tm"
    [
      ("commit", per_config "commit visible" `Quick test_commit_visible);
      ("rollback", per_config "rollback restores" `Quick test_rollback_restores);
      ( "rollback-multi",
        per_config "multi-write same cell" `Quick
          test_rollback_multiple_writes_same_cell );
      ("interleaved", per_config "interleaved txns" `Quick test_interleaved_txns);
      ("atomically", per_config "atomically" `Quick test_atomically);
      ("clearing", per_config "force clears log" `Quick test_force_clears_log);
      ("checkpoint", per_config "checkpoint clears" `Quick test_checkpoint_clears);
      ( "crash-committed",
        per_config "committed survives" `Quick test_committed_survives_crash );
      ( "crash-uncommitted",
        per_config "uncommitted rolled back" `Quick test_uncommitted_rolled_back );
      ( "crash-mid-rollback",
        per_config "crash mid rollback" `Slow test_crash_mid_rollback );
      ( "crash-mid-commit",
        per_config "commit is atomic" `Slow test_crash_mid_commit_atomic );
      ( "double-crash",
        per_config "crash during recovery" `Quick test_double_crash_recovery );
      ( "checkpoint-crash",
        per_config "crash after checkpoint" `Quick test_crash_after_checkpoint );
      ( "checkpoint-mid-crash",
        per_config "crash mid checkpoint" `Slow test_crash_mid_checkpoint );
      ("delete", per_config "deferred delete" `Quick test_delete_deferred);
      ( "delete-rollback",
        per_config "rollback drops delete" `Quick test_rollback_drops_delete );
      ( "properties",
        List.map
          (fun nc -> QCheck_alcotest.to_alcotest (prop_crash_consistency nc))
          all_configs );
      ("errors", error_cases);
    ]
