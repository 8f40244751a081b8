(* Transaction-manager tests: atomicity and durability across the paper's
   four configurations (1L/2L x force/no-force) and three log variants,
   with crash injection at arbitrary and exhaustive points, double-crash
   recovery, checkpointing, and a randomized workload-vs-model property. *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios
open Support

(* Every configuration at 1, 2 and 4 log partitions: with several, a
   transaction's records and CLRs land in its home partition, which is
   partition 0 only for the first transaction of a manager. *)
let all_configs =
  List.concat_map Scenarios.matrix [ 1; 2; 4 ]
  (* force + Batch: commit-time clearing of a grouped log, in no named
     configuration *)
  @ [ ("1l-fp-batch", { Rewind.config_1l_fp with variant = Log.Batch 8 }) ]

(* Ten word-sized cells of user data. *)
let cells alloc = Array.init 10 (fun _ -> Alloc.alloc alloc 8)

let reattach cfg arena =
  let alloc = Alloc.recover arena in
  Tm.attach ~cfg alloc ~root_slot

(* ------------------------------------------------------------------ *)
(* Basic transactional behaviour (no crash)                            *)
(* ------------------------------------------------------------------ *)

let test_commit_visible cfg () =
  let arena, alloc, tm = fresh ~cfg () in
  let c = cells alloc in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:c.(0) ~value:11L;
  Tm.write tm txn ~addr:c.(1) ~value:22L;
  Tm.commit tm txn;
  check_i64 "cell 0" 11L (Arena.read arena c.(0));
  check_i64 "cell 1" 22L (Arena.read arena c.(1))

let test_rollback_restores cfg () =
  let arena, alloc, tm = fresh ~cfg () in
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
  let arena, alloc, tm = fresh ~cfg () in
  let c = cells alloc in
  let t = Tm.begin_txn tm in
  Tm.write tm t ~addr:c.(0) ~value:1L;
  Tm.write tm t ~addr:c.(0) ~value:2L;
  Tm.write tm t ~addr:c.(0) ~value:3L;
  Tm.rollback tm t;
  check_i64 "back to initial" 0L (Arena.read arena c.(0))

let test_interleaved_txns cfg () =
  let arena, alloc, tm = fresh ~cfg () in
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
  let arena, alloc, tm = fresh ~cfg () in
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
  let _, alloc, tm = fresh ~cfg () in
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
  let _, alloc, tm = fresh ~cfg () in
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

(* Two managers side by side on one arena, [Tm.root_slots] apart: each
   checkpoints with a transaction of its own still open, the arena
   crashes, and each recovers exactly its own state.  Closer together,
   the first manager's horizon would land on the second's fingerprint. *)
let test_adjacent_managers cfg () =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  let slots = [| root_slot; root_slot + Tm.root_slots cfg |] in
  let tms = Array.map (fun root_slot -> Tm.create ~cfg alloc ~root_slot) slots in
  let c = Array.map (fun _ -> cells alloc) slots in
  Array.iteri
    (fun m tm ->
      let t = Tm.begin_txn tm in
      Tm.write tm t ~addr:c.(m).(0) ~value:(Int64.of_int (m + 1));
      Tm.commit tm t;
      let live = Tm.begin_txn tm in
      Tm.write tm live ~addr:c.(m).(1) ~value:99L;
      Tm.checkpoint tm)
    tms;
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  Array.iteri
    (fun m root_slot ->
      ignore (Tm.attach ~cfg alloc ~root_slot);
      check_i64 (Fmt.str "manager %d: committed write" m)
        (Int64.of_int (m + 1))
        (Arena.read arena c.(m).(0));
      check_i64 (Fmt.str "manager %d: open transaction undone" m) 0L
        (Arena.read arena c.(m).(1)))
    slots;
  (* the last footprint that fits the root directory (slots 1-63) *)
  ignore (Tm.create ~cfg alloc ~root_slot:(64 - Tm.root_slots cfg))

(* ------------------------------------------------------------------ *)
(* Crash + recovery                                                    *)
(* ------------------------------------------------------------------ *)

let test_committed_survives_crash cfg () =
  let arena, alloc, tm = fresh ~cfg () in
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
  let arena, alloc, tm = fresh ~cfg () in
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
  let arena, alloc, tm = fresh ~cfg () in
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
  let arena, alloc, tm = fresh ~cfg () in
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
  let _, alloc, tm = fresh ~cfg () in
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
  let arena, _, _ = fresh () in
  Arena.crash arena;
  Alloc.recover arena

let on_fresh cfg f () = f (let _, _, tm = fresh ~cfg () in tm)

(* Every named configuration: the WAL ones at 1, 2 and 4 partitions,
   then InCLL. *)
let named_rows =
  configs
    (List.concat_map
       (fun (n, _) -> [ n; n ^ "-p2"; n ^ "-p4" ])
       Scenarios.wal_configs)
  @ [ ("incll", Option.get (Rewind.config_of_name "incll")) ]

let in_every_row f () = List.iter (fun (name, cfg) -> f name cfg) named_rows

(* The open transactions count, then the one in doubt after an attach. *)
let test_active_transactions name (cfg : Tm.config) =
  let arena, _, tm = fresh ~cfg () in
  let cell = Tm.alloc_cell tm in
  let active what n tm =
    check_int (Fmt.str "%s: active %s" name what) n (Tm.active_transactions tm)
  in
  let t1 = Tm.begin_txn tm in
  Tm.write tm t1 ~addr:cell ~value:1L;
  active "while open" 1 tm;
  Tm.commit tm t1;
  active "after commit" 0 tm;
  let t2 = Tm.begin_txn tm in
  Tm.write tm t2 ~addr:cell ~value:2L;
  Tm.rollback tm t2;
  active "after rollback" 0 tm;
  Tm.write tm (Tm.begin_txn tm) ~addr:cell ~value:3L;
  let tm = reattach cfg arena in
  active "after an attach with nothing in doubt" 0 tm;
  if not cfg.incll then begin
    let t4 = Tm.begin_txn tm in
    Tm.write tm t4 ~addr:cell ~value:4L;
    Tm.prepare tm t4 ~gtid:9;
    active "after an attach with one in doubt" 1 (reattach cfg arena)
  end

(* [op] on a transaction never begun (the id the AAVLT's internal
   logging reserves among them), one committed and one rolled back
   raises [Txn_not_open] and changes neither the cell nor the counts. *)
let test_not_open op name (cfg : Tm.config) =
  let arena, _, tm = fresh ~cfg () in
  let cell = Tm.alloc_cell tm in
  let committed = Tm.begin_txn tm in
  Tm.write tm committed ~addr:cell ~value:1L;
  let sp = Tm.savepoint tm committed in
  Tm.commit tm committed;
  let rolled_back = Tm.begin_txn tm in
  Tm.write tm rolled_back ~addr:cell ~value:2L;
  Tm.rollback tm rolled_back;
  List.iter
    (fun (kind, txn) ->
      let what = Fmt.str "%s, %s transaction %d" name kind txn in
      (match op tm txn ~cell ~sp with
      | () -> Alcotest.failf "%s: no error" what
      | exception Tm.Error (Tm.Txn_not_open x) -> check_int what txn x);
      check_i64 (what ^ ": cell") 1L (Arena.read arena cell);
      check_int (what ^ ": commits") 1 (Tm.commits tm);
      check_int (what ^ ": rollbacks") 1 (Tm.rollbacks tm))
    [
      ("never begun", rolled_back + 100);
      ("never begun", 0);
      ("committed", committed);
      ("rolled back", rolled_back);
    ]

(* A body that commits and then raises: the rollback that follows is a
   misuse, and the committed value survives a crash. *)
let test_commit_then_raise name (cfg : Tm.config) =
  let arena, _, tm = fresh ~cfg () in
  let cell = Tm.alloc_cell tm in
  let txn = ref 0 in
  (match
     Tm.atomically tm (fun t ->
         txn := t;
         Tm.write tm t ~addr:cell ~value:7L;
         Tm.commit tm t;
         failwith "after commit")
   with
  | _ -> Alcotest.failf "%s: no error" name
  | exception Tm.Error (Tm.Txn_not_open x) -> check_int name !txn x);
  check_int (name ^ ": commits") 1 (Tm.commits tm);
  check_int (name ^ ": rollbacks") 0 (Tm.rollbacks tm);
  if cfg.incll then Tm.advance_epoch tm;
  ignore (reattach cfg arena);
  check_i64 (name ^ ": committed value") 7L (Arena.read arena cell)

let error_cases =
  let tc name is f = Alcotest.test_case name `Quick (expect_error ~is f) in
  [
    tc "invalid config"
      (( = ) (Tm.Invalid_config "config.partitions must be at least 1"))
      (fun () -> fresh ~cfg:{ Rewind.config_1l_nfp with partitions = 0 } ());
    tc "bucket capacity out of range"
      (( = ) (Tm.Invalid_config "config.bucket_cap 0 is outside [1, 2^24)"))
      (fun () -> fresh ~cfg:{ Rewind.config_1l_nfp with bucket_cap = 0 } ());
    tc "batch group out of range"
      (( = ) (Tm.Invalid_config "Batch group 65544 is outside [1, 2^16)"))
      (fun () -> fresh ~cfg:(Rewind.config_batch ~group:(65536 + 8) ()) ());
    tc "negative bucket capacity"
      (( = ) (Tm.Invalid_config "config.bucket_cap -1 is outside [1, 2^24)"))
      (fun () -> fresh ~cfg:{ Rewind.config_1l_nfp with bucket_cap = -1 } ());
    tc "empty batch group"
      (( = ) (Tm.Invalid_config "Batch group 0 is outside [1, 2^16)"))
      (fun () -> fresh ~cfg:(Rewind.config_batch ~group:0 ()) ());
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
    tc "footprint past the root directory"
      (function Tm.Invalid_config _ -> true | _ -> false)
      (fun () ->
        let _, alloc, _ = fresh () in
        Tm.create alloc
          ~root_slot:(65 - Tm.root_slots Rewind.config_1l_nfp));
    tc "unregistered cell"
      (function Tm.Unregistered_cell _ -> true | _ -> false)
      (on_fresh Rewind.config_incll (fun tm ->
           Tm.write tm (Tm.begin_txn tm) ~addr:4096 ~value:1L));
  ]
  @ List.map
      (fun (op_name, wal_only, op) ->
        Alcotest.test_case ("transaction not open: " ^ op_name) `Quick
          (in_every_row (fun name (cfg : Tm.config) ->
               if not (wal_only && cfg.incll) then
                 test_not_open op name cfg)))
      (* name, WAL only, the operation *)
      [
        ( "write",
          false,
          fun tm txn ~cell ~sp:_ -> Tm.write tm txn ~addr:cell ~value:9L );
        ( "log_delete",
          true,
          fun tm txn ~cell ~sp:_ -> Tm.log_delete tm txn ~addr:cell ~size:8 );
        ("commit", false, fun tm txn ~cell:_ ~sp:_ -> Tm.commit tm txn);
        ("rollback", false, fun tm txn ~cell:_ ~sp:_ -> Tm.rollback tm txn);
        ( "savepoint",
          false,
          fun tm txn ~cell:_ ~sp:_ -> ignore (Tm.savepoint tm txn) );
        ( "rollback_to",
          false,
          fun tm txn ~cell:_ ~sp -> Tm.rollback_to tm txn sp );
        ( "prepare",
          true,
          fun tm txn ~cell:_ ~sp:_ -> Tm.prepare tm txn ~gtid:5 );
      ]
  @ [
      Alcotest.test_case "active transactions" `Quick
        (in_every_row test_active_transactions);
      Alcotest.test_case "commit then raise" `Quick
        (in_every_row test_commit_then_raise);
    ]

(* ------------------------------------------------------------------ *)
(* One-layer rollback and force clearing read only their own stretch    *)
(* ------------------------------------------------------------------ *)

(* The loads and simulated ns of [f ()]. *)
let cost arena f =
  let before = Stats.snapshot (Arena.stats arena) in
  let c = Clock.start () in
  f ();
  let ns = Clock.elapsed c in
  ((Stats.diff (Arena.stats arena) before).Stats.loads, ns)

(* [op tm txn sp] on a 4-write transaction whose savepoint [sp] precedes
   its first write, after [before] committed transactions and no
   checkpoint; its loads and simulated ns.  Every value exceeds an inline
   pair's 16-bit images, so each write and CLR is a full record of one
   slot, and each earlier transaction fills eight slots with its END
   word: the transaction starts at the same offset within a cache line
   whatever [before] is, and 1 024-slot buckets hold the whole of it and
   its rollback. *)
let own_stretch_cost cfg ~before op =
  let cfg = { cfg with Tm.bucket_cap = 1024 } in
  let arena, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg () in
  let c = cells alloc in
  let big v = Int64.of_int (0x10000 + v) in
  for n = 1 to before do
    let t = Tm.begin_txn tm in
    for i = 0 to 6 do
      Tm.write tm t ~addr:c.(i) ~value:(big ((n * 10) + i))
    done;
    Tm.commit tm t
  done;
  let t = Tm.begin_txn tm in
  let sp = Tm.savepoint tm t in
  for i = 0 to 3 do
    Tm.write tm t ~addr:c.(i) ~value:(big (-i - 1))
  done;
  cost arena (fun () -> op tm t sp)

(* Rolling back, rolling back to a savepoint before the first write and
   committing (a force commit clears the transaction) cost the same after
   10 committed transactions as after 2 000: each walks the log back to
   the transaction's first record and no further. *)
let test_cost_independent_of_log_length cfg () =
  List.iter
    (fun (what, op) ->
      let short_loads, short_ns = own_stretch_cost cfg ~before:10 op in
      let long_loads, long_ns = own_stretch_cost cfg ~before:2000 op in
      check_int (what ^ ": loads") short_loads long_loads;
      check_int (what ^ ": simulated ns") short_ns long_ns)
    [
      ("rollback", fun tm t _ -> Tm.rollback tm t);
      ("rollback_to", fun tm t sp -> Tm.rollback_to tm t sp);
      ("commit", fun tm t _ -> Tm.commit tm t);
    ]

(* A transaction takes its LSN before its home latch, so under fibers a
   lower LSN of another transaction can land after a transaction's first
   record.  Here [u]'s write forms a full record, writing its line back
   between taking its LSN and taking the latch, while [t]'s inline pair
   takes the next LSN and the latch first.  Rolling [t] back still undoes
   both of its writes: the walk stops at [t]'s first record, not at the
   first lower LSN. *)
let test_lsn_inversion cfg () =
  let arena, alloc, tm = fresh ~cfg () in
  let c = cells alloc in
  let u = Tm.begin_txn ~home:0 tm and t = Tm.begin_txn ~home:0 tm in
  ignore
    (Sim_threads.run ~threads:2 ~ops_per_thread:2 (fun fiber op ->
         match (fiber, op) with
         | 0, 0 -> Tm.write tm u ~addr:c.(9) ~value:0x123456L
         | 0, _ -> ()
         | _, op ->
             Tm.write tm t ~addr:c.(op) ~value:(Int64.of_int (op + 1))));
  let log = (Tm.logs tm).(0) in
  let records =
    List.map
      (fun r -> (Record.txn arena r, Record.lsn arena r))
      (Log.records log)
  in
  let t_first =
    List.fold_left
      (fun m (txn, lsn) -> if txn = t then min m lsn else m)
      max_int records
  in
  let rec inverted seen_first = function
    | [] -> false
    | (txn, lsn) :: rest ->
        (seen_first && txn = u && lsn < t_first)
        || inverted (seen_first || (txn = t && lsn = t_first)) rest
  in
  check_bool "a lower LSN of u lands after t's first record" true
    (inverted false records);
  Tm.rollback tm t;
  check_i64 "t's first write undone" 0L (Arena.read arena c.(0));
  check_i64 "t's second write undone" 0L (Arena.read arena c.(1));
  Tm.commit tm u;
  check_i64 "u's write kept" 0x123456L (Arena.read arena c.(9));
  check_bool "occupancy coherent" true (Log.check_occupancy log = [])

(* Force clearing frees what a whole-log clearing pass would: after
   every commit and rollback of a long run over 16-slot buckets, no
   bucket but the current one is empty — not even one that emptied while
   it was the current one — and every occupancy cell matches the log. *)
let test_force_frees_idle_buckets cfg () =
  let cfg = { cfg with Tm.bucket_cap = 16 } in
  let _, alloc, tm = fresh ~cfg () in
  let c = cells alloc in
  for n = 1 to 600 do
    let t = Tm.begin_txn tm in
    for i = 0 to n mod 4 do
      Tm.write tm t ~addr:c.(i) ~value:(Int64.of_int n)
    done;
    if n mod 7 = 0 then Tm.rollback tm t else Tm.commit tm t;
    Array.iter
      (fun log ->
        Alcotest.(check (list int))
          (Fmt.str "no idle bucket after transaction %d" n)
          [] (Log.idle_buckets log);
        check_bool
          (Fmt.str "occupancy coherent after transaction %d" n)
          true
          (Log.check_occupancy log = []))
      (Tm.logs tm)
  done

(* ------------------------------------------------------------------ *)
(* The configuration list                                              *)
(* ------------------------------------------------------------------ *)

(* {!Rewind.named_configs} is the one list: its seven names, each a
   configuration a manager accepts. *)
let test_named_configs () =
  Alcotest.(check (list string))
    "names"
    [ "1l-nfp"; "1l-fp"; "2l-nfp"; "2l-fp"; "simple"; "batch"; "incll" ]
    Rewind.config_names;
  List.iter
    (fun name ->
      match Rewind.config_of_name name with
      | None -> Alcotest.failf "%s does not resolve" name
      | Some cfg -> ignore (fresh ~cfg ()))
    Rewind.config_names

(* The matrix is the list's WAL entries under the same names, and at
   [p] partitions those entries sharded [p] ways under "NAME-pP". *)
let test_matrix_shards_named_configs () =
  let wal = List.filter (fun n -> n <> "incll") Rewind.config_names in
  Alcotest.(check (list string)) "WAL names" wal (List.map fst (Scenarios.matrix 1));
  List.iter
    (fun p ->
      let m = Scenarios.matrix p in
      Alcotest.(check (list string))
        (Fmt.str "names at %d partitions" p)
        (List.map (fun n -> Fmt.str "%s-p%d" n p) wal)
        (List.map fst m);
      List.iter2
        (fun base (name, cfg) ->
          let want =
            Rewind.with_partitions p (Option.get (Rewind.config_of_name base))
          in
          check_bool (name ^ " is " ^ base ^ " sharded") true (cfg = want);
          check_int (name ^ " partitions") p cfg.Tm.partitions)
        wal m)
    [ 2; 4 ]

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
      ( "root-slots",
        per_config "adjacent managers" `Quick test_adjacent_managers );
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
      ( "own-stretch",
        List.map
          (fun (cn, cfg) ->
            tc
              ("cost independent of log length [" ^ cn ^ "]")
              `Quick
              (test_cost_independent_of_log_length cfg))
          (configs
             [
               "1l-nfp"; "1l-fp"; "batch"; "simple"; "1l-nfp-p4"; "1l-fp-p4";
               "batch-p4"; "simple-p4";
             ])
        @ List.map
            (fun (cn, cfg) ->
              tc ("lsn inversion [" ^ cn ^ "]") `Quick (test_lsn_inversion cfg))
            (configs [ "1l-nfp"; "1l-fp"; "batch"; "1l-fp-p4" ])
        @ List.map
            (fun (cn, cfg) ->
              tc
                ("force frees idle buckets [" ^ cn ^ "]")
                `Quick
                (test_force_frees_idle_buckets cfg))
            (("1l-fp-batch", { Rewind.config_1l_fp with variant = Log.Batch 8 })
            :: configs [ "1l-fp"; "1l-fp-p4" ]) );
      ("delete", per_config "deferred delete" `Quick test_delete_deferred);
      ( "delete-rollback",
        per_config "rollback drops delete" `Quick test_rollback_drops_delete );
      ( "properties",
        List.map
          (fun nc -> QCheck_alcotest.to_alcotest (prop_crash_consistency nc))
          all_configs );
      ("errors", error_cases);
      ( "configs",
        [
          tc "named configurations" `Quick test_named_configs;
          tc "matrix shards the named configurations" `Quick
            test_matrix_shards_named_configs;
        ] );
    ]
