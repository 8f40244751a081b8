(* Race-detector tests.

   Three claims:
   1. the detector *detects* — an intentionally unsynchronized shared
      counter and a store-vs-flush persist race each produce exactly the
      pinned report (site pair, fiber ids, event indices, held-lock
      sets), and Raise mode raises;
   2. the detector is *quiet* where synchronization exists — the same
      counter under a mutex, allocator free-list reuse across fibers,
      and the multi-writer transactional workload across every named
      configuration at 1/2/4 log partitions;
   3. Sim_mutex misuse is caught in a fiber and on the main thread —
      double unlock, re-lock by the holder and unlock-by-non-holder
      raise, and [holding] tracks ownership. *)

open Rewind_nvm
module R = Rewind_analysis.Racecheck

let race = Alcotest.testable R.pp_race ( = )

(* -- 1. detection, pinned reports --------------------------------------- *)

(* Two fibers increment one shared word with no synchronization: fiber
   1's read and write both race with fiber 0's write.  The whole report
   is pinned — fiber ids, scalar clocks, event indices into the combined
   stream, lock sets — so any drift in event emission or vector-clock
   bookkeeping shows up here. *)
let test_counter_race () =
  let arena = Arena.create ~size_bytes:(1 lsl 20) () in
  let w = 4096 in
  let rc = R.attach ~mode:Collect arena in
  ignore
    (Sim_threads.run ~threads:2 ~ops_per_thread:2 (fun _ _ ->
         let v = Arena.read arena w in
         Arena.write arena w (Int64.add v 1L)));
  R.detach rc;
  let expected =
    [
      {
        R.kind = R.Write_read;
        addr = w;
        len = 8;
        prev = { R.fiber = 0; clock = 2; event_no = 5; locks = [] };
        cur = { R.fiber = 1; clock = 2; event_no = 7; locks = [] };
      };
      {
        R.kind = R.Write_write;
        addr = w;
        len = 8;
        prev = { R.fiber = 0; clock = 2; event_no = 5; locks = [] };
        cur = { R.fiber = 1; clock = 2; event_no = 8; locks = [] };
      };
    ]
  in
  Alcotest.(check (list race)) "pinned counter report" expected (R.races rc)

(* A cached store by fiber 0 and a write-back of its line by fiber 1,
   with no happens-before edge: the durable prefix depends on the
   schedule.  One pinned persist-race report at line granularity. *)
let test_persist_race () =
  let arena = Arena.create ~size_bytes:(1 lsl 20) () in
  let w = 8192 in
  let rc = R.attach ~mode:Collect arena in
  ignore
    (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun t _ ->
         if t = 0 then Arena.write arena w 42L else Arena.flush_line arena w));
  R.detach rc;
  let expected =
    [
      {
        R.kind = R.Persist_order;
        addr = w;
        len = 64;
        prev = { R.fiber = 0; clock = 2; event_no = 4; locks = [] };
        cur = { R.fiber = 1; clock = 2; event_no = 6; locks = [] };
      };
    ]
  in
  Alcotest.(check (list race)) "pinned persist report" expected (R.races rc)

(* Lock sets appear in reports: a one-sided lock does not synchronize,
   but the report shows who held what — the self-diagnosing part. *)
let test_lockset_in_report () =
  let arena = Arena.create ~size_bytes:(1 lsl 20) () in
  let mu = Sim_mutex.create () in
  let w = 4096 in
  let rc = R.attach ~mode:Collect arena in
  ignore
    (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun t _ ->
         if t = 0 then Arena.write arena w 1L
         else Sim_mutex.with_lock mu (fun () -> Arena.write arena w 2L)));
  R.detach rc;
  match R.races rc with
  | [ r ] ->
      Alcotest.(check (list int)) "prev holds nothing" [] r.R.prev.R.locks;
      Alcotest.(check (list int))
        "cur holds the mutex"
        [ Sim_mutex.id mu ]
        r.R.cur.R.locks
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs)

let test_raise_mode () =
  let arena = Arena.create ~size_bytes:(1 lsl 20) () in
  let raised = ref false in
  (try
     R.with_racecheck arena (fun _rc ->
         ignore
           (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun _ _ ->
                Arena.write arena 4096 1L)))
   with R.Race r ->
     raised := true;
     Alcotest.(check bool)
       "write-write" true
       (r.R.kind = R.Write_write));
  Alcotest.(check bool) "raised" true !raised

(* -- 2. quiet where synchronized ---------------------------------------- *)

let test_locked_counter_clean () =
  let arena = Arena.create ~size_bytes:(1 lsl 20) () in
  let mu = Sim_mutex.create () in
  let w = 4096 in
  let rc = R.attach ~mode:Collect arena in
  ignore
    (Sim_threads.run ~threads:4 ~ops_per_thread:8 (fun _ _ ->
         Sim_mutex.with_lock mu (fun () ->
             let v = Arena.read arena w in
             Arena.write arena w (Int64.add v 1L))));
  R.detach rc;
  Alcotest.(check (list race)) "no races" [] (R.races rc);
  Alcotest.(check int64) "all increments" 32L (Arena.read arena w)

(* Free-list reuse: fiber 0 writes and frees a block, fiber 1 reallocates
   and rewrites it.  The allocator's internal lock is the only edge. *)
let test_alloc_reuse_clean () =
  let arena = Arena.create ~size_bytes:(1 lsl 20) () in
  let alloc = Alloc.create arena in
  let rc = R.attach ~mode:Collect arena in
  ignore
    (Sim_threads.run ~threads:2 ~ops_per_thread:4 (fun t _ ->
         let off = Alloc.alloc alloc 32 in
         Arena.write arena off (Int64.of_int t);
         Clock.advance 100;
         Alloc.free alloc off 32));
  R.detach rc;
  Alcotest.(check (list race)) "no races" [] (R.races rc)

let multi_writer_clean (name, cfg) partitions () =
  let rc = Rewind_benchlib.Race_workloads.multi_writer ~threads:4 ~partitions ~cfg () in
  Alcotest.(check (list race))
    (Fmt.str "%s p%d clean" name partitions)
    [] (R.races rc);
  Alcotest.(check bool) "saw events" true (R.events_seen rc > 0)

let checkpoint_clean () =
  let rc =
    Rewind_benchlib.Race_workloads.concurrent_checkpoint ~partitions:2
      ~cfg:Rewind.config_1l_nfp ()
  in
  Alcotest.(check (list race)) "checkpoint clean" [] (R.races rc)

(* Parallel recovery: each partition's attach and analysis decode run on
   their own recovery fiber.  A detector attached across the crash and a
   four-partition reattach must find no data or persist race between
   them. *)
let parallel_recovery_clean (name, cfg) () =
  let arena = Arena.create ~size_bytes:(16 lsl 20) () in
  let rc = R.attach ~mode:Collect arena in
  let alloc = Alloc.create arena in
  let tm = Rewind.Tm.create ~cfg alloc ~root_slot:2 in
  let cells = Array.init 16 (fun _ -> Alloc.alloc alloc 8) in
  for tno = 1 to 12 do
    let t = Rewind.Tm.begin_txn tm in
    for i = 0 to 3 do
      Rewind.Tm.write tm t ~addr:cells.((tno + i) mod 16)
        ~value:(Int64.of_int tno)
    done;
    Rewind.Tm.commit tm t
  done;
  (* eight writes: a full Batch group, so the loser's records are durable *)
  let live = Rewind.Tm.begin_txn tm in
  for i = 0 to 7 do
    Rewind.Tm.write tm live ~addr:cells.(i) ~value:99L
  done;
  Arena.crash arena;
  let tm2 = Rewind.Tm.attach ~cfg (Alloc.recover arena) ~root_slot:2 in
  R.detach rc;
  Alcotest.(check (list race)) (name ^ " recovery clean") [] (R.races rc);
  Alcotest.(check int) "four partitions" 4 (Rewind.Tm.partitions tm2);
  Alcotest.(check int) "the live transaction was undone" 1
    (Option.get (Rewind.Tm.last_recovery tm2)).Rewind.Tm.txns_undone

(* -- 3. Sim_mutex misuse ------------------------------------------------ *)

let expect_misuse where f =
  match f () with
  | exception Sim_mutex.Misuse _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Sim_mutex.Misuse, got %s" where
        (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Sim_mutex.Misuse" where

let two_fibers f =
  ignore (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun t _ -> f t))

(* [f] misuses a fresh lock: on the main thread, outside any scheduler,
   and as fiber 0 of two under the scheduler. *)
let misuse ?contention_free f =
  expect_misuse "main thread" (fun () ->
      f (Sim_mutex.create ?contention_free ()));
  expect_misuse "fiber" (fun () ->
      let mu = Sim_mutex.create ?contention_free () in
      two_fibers (fun t -> if t = 0 then f mu))

let double_unlock mu =
  Sim_mutex.lock mu;
  Sim_mutex.unlock mu;
  Sim_mutex.unlock mu

let relock mu =
  Sim_mutex.lock mu;
  Sim_mutex.lock mu

let test_double_unlock () = misuse double_unlock
let test_relock () = misuse relock

let test_unlock_by_non_holder () =
  let mu = Sim_mutex.create () in
  expect_misuse "fiber" (fun () ->
      two_fibers (fun t ->
          if t = 0 then Sim_mutex.lock mu else Sim_mutex.unlock mu))

let test_contention_free_misuse () = misuse ~contention_free:true double_unlock

let test_holding () =
  let mu = Sim_mutex.create () in
  let seen = ref [] in
  ignore
    (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun t _ ->
         if t = 0 then
           Sim_mutex.with_lock mu (fun () ->
               seen := ("inside", Sim_mutex.holding mu) :: !seen)
         else seen := ("other", Sim_mutex.holding mu) :: !seen));
  Alcotest.(check bool) "released" false (Sim_mutex.holding mu);
  Sim_mutex.with_lock mu (fun () ->
      Alcotest.(check bool) "main thread" true (Sim_mutex.holding mu));
  List.iter
    (fun (where, held) ->
      Alcotest.(check bool) where (where = "inside") held)
    !seen

let () =
  Alcotest.run "races"
    [
      ( "detect",
        [
          Alcotest.test_case "unsynchronized counter" `Quick test_counter_race;
          Alcotest.test_case "store vs flush" `Quick test_persist_race;
          Alcotest.test_case "lock sets in report" `Quick
            test_lockset_in_report;
          Alcotest.test_case "raise mode" `Quick test_raise_mode;
        ] );
      ( "quiet",
        [
          Alcotest.test_case "locked counter" `Quick test_locked_counter_clean;
          Alcotest.test_case "alloc reuse" `Quick test_alloc_reuse_clean;
          Alcotest.test_case "concurrent checkpoint" `Quick checkpoint_clean;
        ]
        @ List.map
            (fun c ->
              Alcotest.test_case
                (Fmt.str "parallel recovery %s" (fst c))
                `Quick (parallel_recovery_clean c))
            (Support.configs [ "1l-nfp-p4"; "2l-nfp-p4"; "batch-p4" ])
        @ List.concat_map
            (fun cfg ->
              List.map
                (fun p ->
                  Alcotest.test_case
                    (Fmt.str "multi-writer %s p%d" (fst cfg) p)
                    `Quick
                    (multi_writer_clean cfg p))
                [ 1; 2; 4 ])
            (List.map (fun (n, _, mk) -> (n, mk ())) Rewind.named_configs) );
      ( "sim-mutex misuse",
        [
          Alcotest.test_case "double unlock" `Quick test_double_unlock;
          Alcotest.test_case "re-lock by holder" `Quick test_relock;
          Alcotest.test_case "unlock by non-holder" `Quick
            test_unlock_by_non_holder;
          Alcotest.test_case "contention-free double unlock" `Quick
            test_contention_free_misuse;
          Alcotest.test_case "holding accessor" `Quick test_holding;
        ] );
    ]
