(* Partitioned per-thread logging (Section 4.7) with merged recovery.

   Five attacks:

   1. functional smoke across every configuration at 2 and 4 partitions:
      committed transactions survive a crash, a rolled-back and a live
      transaction do not, transactions actually spread round-robin
      over the partitions' logs, and a quiescent checkpoint empties them
      all;

   2. an exhaustive crash sweep: concurrent writers (the fiber scheduler)
      under Batch logging with tiny buckets and groups, a crash armed at
      *every* persistence event of the run, recovery after each.  With
      four writers appending into distinct partitions and group flushes /
      bucket rollovers staggered across them, the sweep necessarily
      includes crash points where one partition is mid-group-flush while
      another is mid-bucket-append — the interleavings a global-latch log
      can never produce;

   3. a checkpoint crash sweep at 2 and 4 partitions — the merged
      clearing must remove settled records in *global* LSN order across
      partitions, ENDs last, or redo resurrects stale values;

   4. properties: the merged record stream {!Tm.merged_log_records} is
      strictly ascending by LSN and is exactly the union of the
      partitions' logs; and recovery at 4 partitions reaches the same
      cell state as at 1 partition for the same transaction history;

   5. a crash sweep at 1, 2 and 4 partitions over Batch logs whose
      checkpoints free buckets that later bucket rolls reuse: a crash at
      every persistence event, before, inside and after a recycled
      bucket's relinking, must recover the committed prefix. *)

open Rewind_nvm
open Rewind
module San = Rewind_analysis.Sanitizer
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios
open Support

(* The matrix at [n] partitions, plus Batch 4, whose groups fill twice as
   often as the named Batch 8's. *)
let smoke_configs n =
  Scenarios.matrix n
  @ [
      ( Fmt.str "batch4-p%d" n,
        Rewind.with_partitions n (Rewind.config_batch ~group:4 ()) );
    ]

(* ------------------------------------------------------------------ *)
(* 1. Smoke: every config at 2 and 4 partitions                        *)
(* ------------------------------------------------------------------ *)

let test_smoke (name, cfg) n_parts () =
  let cfg = { cfg with Tm.bucket_cap = 8 } in
  let arena, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg () in
  check_int (name ^ ": partitions") n_parts (Tm.partitions tm);
  let cells = Array.init 24 (fun _ -> Alloc.alloc alloc 8) in
  (* 2 * n_parts committed transactions: with round-robin homes, every
     partition gets exactly two. *)
  let n_txns = 2 * n_parts in
  for tno = 0 to n_txns - 1 do
    let txn = Tm.begin_txn tm in
    check_int
      (Fmt.str "%s: txn %d home" name txn)
      (tno mod n_parts)
      (Tm.home_partition tm txn);
    for i = 0 to 1 do
      Tm.write tm txn
        ~addr:cells.((2 * tno) + i)
        ~value:(Int64.of_int ((tno * 10) + i + 1))
    done;
    Tm.commit tm txn
  done;
  (* every partition's log saw appends (committed records may already be
     cleared under force policy, so count appends, not length) *)
  Array.iteri
    (fun p n ->
      check_bool (Fmt.str "%s: partition %d used" name p) true (n > 0))
    (Array.map Log.appended (Tm.logs tm));
  (* one rolled back, one live *)
  let rb = Tm.begin_txn tm in
  Tm.write tm rb ~addr:cells.(20) ~value:777L;
  Tm.rollback tm rb;
  let live = Tm.begin_txn tm in
  Tm.write tm live ~addr:cells.(21) ~value:888L;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let san = San.attach ~mode:San.Collect arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  check_int (name ^ ": recovery sanitizer-clean") 0
    (List.length (San.violations san));
  San.detach san;
  for tno = 0 to n_txns - 1 do
    for i = 0 to 1 do
      check_int
        (Fmt.str "%s: committed cell %d" name ((2 * tno) + i))
        ((tno * 10) + i + 1)
        (Int64.to_int (Arena.read arena cells.((2 * tno) + i)))
    done
  done;
  check_int (name ^ ": rolled-back cell") 0
    (Int64.to_int (Arena.read arena cells.(20)));
  check_int (name ^ ": live cell undone") 0
    (Int64.to_int (Arena.read arena cells.(21)));
  (* post-recovery transactions still work, and ids continue past every
     transaction the log still knew about (a live Batch transaction whose
     records never left the cache leaves no trace, so [live] itself need
     not be passed) *)
  let txn = Tm.begin_txn tm2 in
  check_bool (name ^ ": txn ids continue") true (txn > n_txns);
  Tm.write tm2 txn ~addr:cells.(22) ~value:99L;
  Tm.commit tm2 txn;
  check_int (name ^ ": post-recovery commit") 99
    (Int64.to_int (Arena.read arena cells.(22)));
  (* one more commit per partition, then a checkpoint with no live
     transaction empties every partition's log; the commit count spans
     all partitions *)
  for tno = 1 to n_parts do
    let txn = Tm.begin_txn tm2 in
    Tm.write tm2 txn ~addr:cells.(23) ~value:(Int64.of_int tno);
    Tm.commit tm2 txn
  done;
  Tm.checkpoint tm2;
  Array.iteri
    (fun p log ->
      check_int (Fmt.str "%s: partition %d log empty" name p) 0 (Log.length log))
    (Tm.logs tm2);
  check_int (name ^ ": commits across partitions") (n_parts + 1) (Tm.commits tm2)

(* ------------------------------------------------------------------ *)
(* 2. Concurrent writers, crash at every persistence event             *)
(* ------------------------------------------------------------------ *)

(* Four fiber writers, each running transactions pinned (by id) across
   the partitions; Batch 4 groups and 8-slot buckets so group flushes
   and bucket rollovers happen constantly and out of phase between
   partitions.  Each transaction writes 3 private cells; recovery must
   make each transaction all-or-nothing. *)
let sweep_threads = 4
let sweep_ops = 3 (* transactions per writer *)

let sweep_cfg n_parts =
  Rewind.with_partitions n_parts
    { (Rewind.config_batch ~group:4 ()) with Tm.bucket_cap = 8 }

(* Deterministic value for (thread, op, i). *)
let sweep_value t op i = Int64.of_int ((((t * 10) + op) * 10) + i + 1)

let sweep_workload tm cells =
  ignore
    (Sim_threads.run ~threads:sweep_threads ~ops_per_thread:sweep_ops
       (fun t op ->
         let txn = Tm.begin_txn tm in
         for i = 0 to 2 do
           Tm.write tm txn
             ~addr:cells.(((t * sweep_ops) + op) * 3 + i)
             ~value:(sweep_value t op i)
         done;
         Tm.commit tm txn))

let test_concurrent_sweep n_parts () =
  let s =
    Harness.every_event
      (Scenarios.tm_cells ~size_bytes:(32 lsl 20)
         ~n:(sweep_threads * sweep_ops * 3)
         (sweep_cfg n_parts)
         ~prepare:(fun _ _ -> ())
         ~window:(fun tm cells () -> sweep_workload tm cells)
         ~check:(fun () _ got ->
           (* every transaction all-or-nothing *)
           let torn = ref None in
           for t = 0 to sweep_threads - 1 do
             for op = 0 to sweep_ops - 1 do
               let v i = got.((((t * sweep_ops) + op) * 3) + i) in
               let all_zero = v 0 = 0L && v 1 = 0L && v 2 = 0L in
               let all_set =
                 List.for_all (fun i -> v i = sweep_value t op i) [ 0; 1; 2 ]
               in
               if not (all_zero || all_set || !torn <> None) then
                 torn :=
                   Some
                     (Fmt.str "txn (writer %d, op %d) torn: %Ld/%Ld/%Ld" t op
                        (v 0) (v 1) (v 2))
             done
           done;
           !torn))
  in
  check_bool
    (Fmt.str "p%d: run persists events" n_parts)
    true (s.Harness.crash_points > 20)

(* ------------------------------------------------------------------ *)
(* 3. Checkpoint crash sweep with partitions                           *)
(* ------------------------------------------------------------------ *)

(* The test_checkpoint regression scenario, sharded: several committed
   transactions overwriting a shared working set (so clearing order
   matters across partitions), one live, then a checkpoint with a crash
   armed at every persistence event inside it. *)
let cp_workload tm cells =
  let expected = Array.make 16 0L in
  for tno = 1 to 6 do
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

let test_checkpoint_sweep n_parts () =
  let s =
    Harness.every_event
      (Scenarios.tm_cells ~size_bytes:(32 lsl 20) ~n:16
         (Rewind.with_partitions n_parts
            { Rewind.config_1l_nfp with Tm.bucket_cap = 8 })
         ~prepare:cp_workload
         ~window:(fun tm _ _ -> Tm.checkpoint tm)
         ~check:(fun expected _ got ->
           Scenarios.expect_cells
             (fun c -> if c >= 8 then 0L else expected.(c))
             got))
  in
  check_bool (Fmt.str "p%d: checkpoint persists" n_parts) true
    (s.Harness.crash_points > 0)

(* ------------------------------------------------------------------ *)
(* 4. Properties                                                       *)
(* ------------------------------------------------------------------ *)

(* Merged redo order equals global LSN order: after a random transaction
   history over 1..4 partitions, the merged stream's LSNs are strictly
   ascending, and the stream is exactly the union of the per-partition
   logs. *)
let prop_merged_order =
  QCheck.Test.make ~name:"merged stream is the union in global LSN order"
    ~count:100
    QCheck.(pair (int_range 1 4) (list_of_size (Gen.int_range 1 12) (int_bound 5)))
    (fun (n_parts, writes_per_txn) ->
      let cfg =
        Rewind.with_partitions n_parts
          { Rewind.config_1l_nfp with Tm.bucket_cap = 8 }
      in
      let arena, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg () in
      let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
      List.iteri
        (fun tno n ->
          let txn = Tm.begin_txn tm in
          for i = 0 to n - 1 do
            Tm.write tm txn
              ~addr:cells.((tno + i) mod 8)
              ~value:(Int64.of_int ((tno * 100) + i))
          done;
          (* leave every third transaction live so the logs keep records *)
          if tno mod 3 <> 0 then Tm.commit tm txn)
        writes_per_txn;
      let merged = Tm.merged_log_records tm in
      let lsns = List.map (fun r -> Record.lsn arena r) merged in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      let union =
        Array.to_list (Tm.logs tm)
        |> List.concat_map (fun log -> Log.records log)
        |> List.sort compare
      in
      ascending lsns && List.sort compare merged = union)

(* Caller-chosen homes are recovery-stable: over a random history whose
   transactions mix explicit [~home] pins with round-robin defaults,
   (a) the id arithmetic puts every pinned transaction on its requested
   partition; (b) after a crash, [attach]'s recomputed homes equal the
   pre-crash ones and a fresh pinned transaction gets an id past every
   pre-crash id while landing on the requested partition (the reseeded
   per-partition counters must skip the history's ids in *every*
   residue class, not just the busiest); and (c) the recovered cell
   state is identical to the same history run at 1 partition — pinning
   redistributes log records, never outcomes. *)
let prop_home_stability =
  QCheck.Test.make ~name:"home pinning is recovery-stable" ~count:60
    QCheck.(
      pair (int_range 1 4)
        (list_of_size (Gen.int_range 1 10)
           (pair (option (int_bound 3)) (int_bound 4))))
    (fun (n_parts, txns) ->
      (* the shrinker can propose values outside the generator's range *)
      let n_parts = max 1 (min 4 n_parts) in
      let run n_parts =
        let cfg =
          Rewind.with_partitions n_parts
            { Rewind.config_1l_nfp with Tm.bucket_cap = 8 }
        in
        let arena, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg () in
        let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
        let homes = ref [] in
        let pinned_ok = ref true in
        List.iteri
          (fun tno (home_opt, writes) ->
            let home = Option.map (fun h -> h mod n_parts) home_opt in
            let txn = Tm.begin_txn ?home tm in
            homes := (txn, Tm.home_partition tm txn, writes) :: !homes;
            (match home with
            | Some h -> if Tm.home_partition tm txn <> h then pinned_ok := false
            | None -> ());
            for i = 0 to writes - 1 do
              Tm.write tm txn
                ~addr:cells.((tno + i) mod 8)
                ~value:(Int64.of_int ((tno * 100) + i))
            done;
            (* every fourth transaction stays live across the crash *)
            if tno mod 4 <> 3 then Tm.commit tm txn)
          txns;
        Arena.crash arena;
        let alloc2 = Alloc.recover arena in
        let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
        let stable =
          List.for_all (fun (txn, h, _) -> Tm.home_partition tm2 txn = h) !homes
        in
        (* A transaction that never wrote leaves no log records, so
           recovery cannot know its id; the reseeded counters only
           promise fresh ids past every *logged* transaction. *)
        let max_logged =
          List.fold_left
            (fun a (t, _, writes) -> if writes > 0 then max a t else a)
            0 !homes
        in
        let want = max_logged mod n_parts in
        let fresh = Tm.begin_txn ~home:want tm2 in
        let fresh_ok =
          fresh > max_logged && Tm.home_partition tm2 fresh = want
        in
        ( !pinned_ok && stable && fresh_ok,
          Array.map (fun c -> Arena.read arena c) cells )
      in
      let ok_n, state_n = run n_parts in
      let ok_1, state_1 = run 1 in
      ok_n && ok_1 && state_n = state_1)

(* Same history, 1 vs 4 partitions: identical recovered state. *)
let test_equivalence () =
  let run n_parts =
    let cfg =
      Rewind.with_partitions n_parts
        { Rewind.config_1l_nfp with Tm.bucket_cap = 8 }
    in
    let arena, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg () in
    let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
    for tno = 1 to 7 do
      let txn = Tm.begin_txn tm in
      for i = 0 to 2 do
        Tm.write tm txn
          ~addr:cells.((tno + i) mod 8)
          ~value:(Int64.of_int ((tno * 100) + i))
      done;
      if tno mod 3 = 0 then Tm.rollback tm txn
      else if tno <> 7 then Tm.commit tm txn
      (* txn 7 stays live *)
    done;
    Arena.crash arena;
    let alloc2 = Alloc.recover arena in
    let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
    Array.map (fun c -> Arena.read arena c) cells
  in
  let one = run 1 and four = run 4 in
  Array.iteri
    (fun i v ->
      check_int (Fmt.str "cell %d equal across partition counts" i)
        (Int64.to_int v)
        (Int64.to_int four.(i)))
    one

(* ------------------------------------------------------------------ *)
(* 5. Crash sweep over a log that recycles its buckets                 *)
(* ------------------------------------------------------------------ *)

let test_recycle_sweep n_parts () =
  let s =
    Scenarios.batch_recycle ~txns:24
      (Rewind.with_partitions n_parts Scenarios.recycle_cfg)
  in
  (* the window must relink freed buckets, or the sweep proves nothing *)
  let w = s.Harness.setup () in
  let recycled () = (Arena.stats w.Scenarios.arena).Stats.buckets_recycled in
  let before = recycled () in
  s.Harness.window w;
  check_bool
    (Fmt.str "p%d: the window recycles buckets" n_parts)
    true
    (recycled () > before);
  let sweep = Harness.every_event s in
  check_bool
    (Fmt.str "p%d: run persists events" n_parts)
    true
    (sweep.Harness.crash_points > 0)

(* ------------------------------------------------------------------ *)

let () =
  let per_config n_parts =
    List.map
      (fun (cn, cfg) ->
        Alcotest.test_case
          (Fmt.str "smoke [%s]" cn)
          `Quick
          (test_smoke (cn, cfg) n_parts))
      (smoke_configs n_parts)
  in
  Alcotest.run "partition"
    [
      ("smoke-2", per_config 2);
      ("smoke-4", per_config 4);
      ( "concurrent-crash-sweep",
        [
          Alcotest.test_case "2 partitions, crash at every event" `Slow
            (test_concurrent_sweep 2);
          Alcotest.test_case "4 partitions, crash at every event" `Slow
            (test_concurrent_sweep 4);
        ] );
      ( "checkpoint-crash-sweep",
        [
          Alcotest.test_case "2 partitions" `Slow (test_checkpoint_sweep 2);
          Alcotest.test_case "4 partitions" `Slow (test_checkpoint_sweep 4);
        ] );
      ( "recycle-crash-sweep",
        List.map
          (fun n ->
            Alcotest.test_case
              (Fmt.str "%d partition(s), crash at every event" n)
              `Slow (test_recycle_sweep n))
          [ 1; 2; 4 ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_merged_order;
          QCheck_alcotest.to_alcotest prop_home_stability;
          Alcotest.test_case "1 vs 4 partitions recover identically" `Quick
            test_equivalence;
        ] );
    ]
