(* Distributed REWIND: two-phase commit across independent simulated-NVM
   nodes.

   Layers under test, bottom up:

   1. the Tm participant surface: a PREPARE record makes a transaction
      in-doubt, in-doubt transactions survive recovery un-undone (and
      survive *repeated* recoveries), and resolve commits or aborts them
      durably;

   2. the cluster happy path: every transaction commits, the decision log
      is fully forgotten after the ACKs, values land on every
      participant;

   3. a lossy fabric: dropped votes/COMMITs/ACKs force retries and
      presumed aborts, and recovery still converges;

   4. the coordinator's worst case: crash after the decision is durable
      and before any COMMIT is sent — every participant in doubt, and
      recovery must commit them all from the decision log alone;

   5. the crash-everywhere sweep: every component (coordinator or any
      participant) crashed at every persistence event of a lossless and
      a lossy run, plus the after-decision states, all recovering to a
      globally consistent outcome with zero sanitizer violations. *)

open Rewind_nvm
open Rewind
module San = Rewind_analysis.Sanitizer
module Twopc = Rewind_dist.Twopc
module Bench = Rewind_benchlib.Twopc_bench
open Support

(* ------------------------------------------------------------------ *)
(* 1. Participant surface: PREPARE / in-doubt / resolve                *)
(* ------------------------------------------------------------------ *)

let test_prepare_survives_recovery (name, cfg) () =
  let arena, alloc, tm = fresh ~cfg () in
  let cell_c = Alloc.alloc alloc 8 and cell_a = Alloc.alloc alloc 8 in
  (* one transaction prepared with gtid 41, one with 42 *)
  let t1 = Tm.begin_txn tm in
  Tm.write tm t1 ~addr:cell_c ~value:111L;
  Tm.prepare tm t1 ~gtid:41;
  let t2 = Tm.begin_txn tm in
  Tm.write tm t2 ~addr:cell_a ~value:222L;
  Tm.prepare tm t2 ~gtid:42;
  Arena.crash arena;
  (* first recovery: both still in doubt, writes not undone *)
  let alloc2 = Alloc.recover arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  Alcotest.(check (list (pair int int)))
    (name ^ ": in doubt after recovery")
    [ (t1, 41); (t2, 42) ] (Tm.in_doubt tm2);
  (* a second crash before resolution: in-doubt state is stable *)
  Arena.crash arena;
  let alloc3 = Alloc.recover arena in
  let san = San.attach ~mode:San.Collect arena in
  let tm3 = Tm.attach ~cfg alloc3 ~root_slot in
  check_int (name ^ ": re-recovery sanitizer-clean") 0
    (List.length (San.violations san));
  San.detach san;
  Alcotest.(check (list (pair int int)))
    (name ^ ": still in doubt after second recovery")
    [ (t1, 41); (t2, 42) ] (Tm.in_doubt tm3);
  (* resolve one each way; both decisions must be durable *)
  Tm.resolve_in_doubt tm3 t1 ~commit:true;
  Tm.resolve_in_doubt tm3 t2 ~commit:false;
  check_int (name ^ ": nothing left in doubt") 0
    (List.length (Tm.in_doubt tm3));
  Arena.crash arena;
  let alloc4 = Alloc.recover arena in
  let tm4 = Tm.attach ~cfg alloc4 ~root_slot in
  check_int (name ^ ": no in-doubt after resolution") 0
    (List.length (Tm.in_doubt tm4));
  check_int (name ^ ": committed in-doubt kept") 111
    (Int64.to_int (Arena.read arena cell_c));
  check_int (name ^ ": aborted in-doubt undone") 0
    (Int64.to_int (Arena.read arena cell_a))

let test_resolve_unknown_txn () =
  let _, _, tm = fresh ~size_bytes:(4 lsl 20) () in
  Alcotest.check_raises "resolving a never-prepared txn rejects"
    (Tm.Error (Tm.Not_in_doubt 1))
    (fun () ->
      let t = Tm.begin_txn tm in
      Tm.resolve_in_doubt tm t ~commit:true)

(* ------------------------------------------------------------------ *)
(* 2. Cluster happy path                                               *)
(* ------------------------------------------------------------------ *)

let test_happy_path () =
  let w = Bench.make_world ~nodes:3 ~txns:8 ~drop_1_in:0 ~seed:1 ~chaos_at:None () in
  Bench.run_workload w;
  let s = Twopc.stats w.Bench.cluster in
  check_int "all committed" 8 s.Twopc.committed;
  check_int "no aborts" 0 s.Twopc.aborted;
  check_int "no retries on a lossless fabric" 0 s.Twopc.retries;
  check_int "ACK-driven forgetting emptied the decision log" s.Twopc.decisions
    s.Twopc.forgotten;
  check_int "nothing in doubt" 0 (Twopc.in_doubt_total w.Bench.cluster);
  (* the consistency check holds on the live (never-crashed) cluster *)
  Alcotest.(check (option string)) "consistent" None (Bench.check_world w)

(* ------------------------------------------------------------------ *)
(* 3. Lossy fabric                                                     *)
(* ------------------------------------------------------------------ *)

let test_lossy_fabric () =
  let w = Bench.make_world ~nodes:3 ~txns:20 ~drop_1_in:3 ~seed:7 ~chaos_at:None () in
  Bench.run_workload w;
  let s = Twopc.stats w.Bench.cluster in
  check_bool "losses happened" true (s.Twopc.msgs_dropped > 0);
  check_bool "retries happened" true (s.Twopc.retries > 0);
  check_bool "some transactions still committed" true (s.Twopc.committed > 0);
  (* recovery + global all-or-nothing for every txn, including the
     presumed-abort ones whose ABORT messages were lost *)
  Alcotest.(check (option string)) "consistent" None (Bench.check_world w)

(* ------------------------------------------------------------------ *)
(* 4. Coordinator crash after decision, before any COMMIT              *)
(* ------------------------------------------------------------------ *)

let test_after_decision_crash () =
  let w = Bench.make_world ~nodes:3 ~txns:5 ~drop_1_in:0 ~seed:1 ~chaos_at:(Some 2) () in
  Bench.run_workload w;
  check_bool "coordinator died" false (Twopc.coordinator_up w.Bench.cluster);
  (* txn 2 involved every node (even index): all three sit in doubt *)
  check_int "every participant in doubt" 3
    (Twopc.in_doubt_total w.Bench.cluster);
  (* txns 3 and 4 never ran *)
  check_bool "txn 3 unsubmitted" true (w.Bench.outcomes.(3) = None);
  Alcotest.(check (option string))
    "recovery commits the decided transaction everywhere" None
    (Bench.check_world w);
  let t = w.Bench.cluster in
  for i = 0 to 2 do
    check_int
      (Fmt.str "node %d holds txn 2's write" i)
      1002
      (Int64.to_int (Twopc.read_cell t i w.Bench.cells.(i).(2)))
  done

(* ------------------------------------------------------------------ *)
(* 5. Crash everywhere                                                 *)
(* ------------------------------------------------------------------ *)

let test_crash_everywhere () =
  let r = Bench.enumerate ~nodes:3 ~txns:4 () in
  (* coordinator + 3 participants all saw events *)
  check_int "all arenas swept" 4 r.Bench.arenas_swept;
  check_bool "sweep exercised crash points" true (r.Bench.crash_points > 100);
  check_int "after-decision states" 4 r.Bench.after_decision_states

let () =
  let prepare_cases =
    List.map
      (fun (cn, cfg) ->
        Alcotest.test_case (Fmt.str "prepare survives recovery [%s]" cn) `Quick
          (test_prepare_survives_recovery (cn, cfg)))
      Rewind_benchlib.Crash_scenarios.wal_configs
  in
  Alcotest.run "2pc"
    [
      ( "participant",
        prepare_cases
        @ [ Alcotest.test_case "resolve unknown txn" `Quick test_resolve_unknown_txn ] );
      ( "cluster",
        [
          Alcotest.test_case "happy path" `Quick test_happy_path;
          Alcotest.test_case "lossy fabric" `Quick test_lossy_fabric;
          Alcotest.test_case "coordinator crash after decision" `Quick
            test_after_decision_crash;
        ] );
      ( "crash-everywhere",
        [ Alcotest.test_case "every component, every event" `Slow test_crash_everywhere ] );
    ]
