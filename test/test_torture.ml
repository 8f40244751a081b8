(* Torture tests: a WAL-ordering invariant under randomized crash points
   over scripts of commits, rollbacks and checkpoints, and the
   simulated-thread scheduler.  The exhaustive crash sweeps over the
   configurations are the protocol table's (test_protocols.ml). *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios
open Support

(* WAL invariant: at any crash point, a durable user-cell value that is
   neither the initial value nor restorable from the durable log would be
   unrecoverable — so recovery must always be able to produce a state
   where cells hold committed values only.  We check it behaviourally:
   run random transactions, crash at a random point, recover, and verify
   every cell equals what a transaction that logged an END (visible in
   the committed set) wrote, or zero. *)
let prop_wal_order cfg =
  QCheck.Test.make
    ~name:(Fmt.str "WAL ordering holds under %a" Tm.pp_config cfg)
    ~count:150
    QCheck.(pair (int_bound 3000) (int_range 1 15))
    (fun (crash_after, n_txns) ->
      let committed = Hashtbl.create 16 in
      let window tm cells =
        Hashtbl.reset committed;
        for tno = 1 to n_txns do
          let txn = Tm.begin_txn tm in
          for i = 0 to 1 do
            Tm.write tm txn
              ~addr:cells.((tno + i) mod 4)
              ~value:(Int64.of_int ((tno * 10) + i))
          done;
          if tno mod 4 = 0 then Tm.rollback tm txn
          else begin
            Tm.commit tm txn;
            Hashtbl.replace committed tno ()
          end;
          if tno mod 5 = 0 then Tm.checkpoint tm
        done
      in
      let check () _ got =
        Array.to_list got
        |> List.find_opt (fun v ->
               let v = Int64.to_int v in
               v <> 0
               && (not (Hashtbl.mem committed (v / 10)))
               (* the transaction whose commit was interrupted may have
                  persisted its END without reaching our table *)
               && v / 10 <= Hashtbl.length committed)
        |> Option.map (Fmt.str "cell holds uncommitted %Ld")
      in
      ignore
        (Harness.crash_once
           (Scenarios.tm_cells ~size_bytes:(16 lsl 20) ~n:4 cfg
              ~prepare:(fun _ _ -> ())
              ~window:(fun tm cells () -> window tm cells)
              ~check)
           ~after:crash_after);
      true)

(* ------------------------------------------------------------------ *)
(* Simulated threads                                                   *)
(* ------------------------------------------------------------------ *)

let test_sim_threads_deterministic () =
  let run () =
    let order = ref [] in
    let d =
      Sim_threads.run ~threads:3 ~ops_per_thread:4 (fun t i ->
          order := (t, i) :: !order;
          Clock.advance ((t + 1) * 10))
    in
    (d, List.rev !order)
  in
  let d1, o1 = run () in
  let d2, o2 = run () in
  Alcotest.(check int) "deterministic duration" d1 d2;
  check_bool "deterministic order" true (o1 = o2);
  (* slowest thread: 4 ops x 30ns *)
  Alcotest.(check int) "duration = slowest thread" 120 d1

let test_sim_threads_min_clock_order () =
  (* thread 0 is slow, threads 1-2 fast: fast threads must finish all
     their ops before thread 0's later ops run *)
  let trace = ref [] in
  ignore
    (Sim_threads.run ~threads:3 ~ops_per_thread:2 (fun t _ ->
         trace := t :: !trace;
         Clock.advance (if t = 0 then 1000 else 1)));
  match List.rev !trace with
  | 0 :: rest ->
      (* after thread 0's first op (cost 1000), all of 1 and 2 run *)
      check_bool "fast threads interleave first" true
        (List.filteri (fun i _ -> i < 4) rest = [ 1; 2; 1; 2 ])
  | _ -> Alcotest.fail "unexpected schedule"

let test_sim_mutex_contention_under_fibers () =
  (* two fibers hammer one lock; duration must be >= total lock-held *)
  let m = Sim_mutex.create ~acquire_ns:0 () in
  let d =
    Sim_threads.run ~threads:2 ~ops_per_thread:10 (fun _ _ ->
        Sim_mutex.with_lock m (fun () -> Clock.advance 100))
  in
  check_bool "serialised on the lock" true (d >= 2000)

let test_sim_mutex_no_contention_different_locks () =
  let locks = Array.init 2 (fun _ -> Sim_mutex.create ~acquire_ns:0 ()) in
  let d =
    Sim_threads.run ~threads:2 ~ops_per_thread:10 (fun t _ ->
        Sim_mutex.with_lock locks.(t) (fun () -> Clock.advance 100))
  in
  Alcotest.(check int) "fully parallel" 1000 d

let test_fiber_holds_lock_across_inner_yield () =
  (* fiber A holds L1 and then contends on L2 (yield inside); fiber B must
     wait for L1 and everything must terminate consistently *)
  let l1 = Sim_mutex.create ~acquire_ns:0 () in
  let l2 = Sim_mutex.create ~acquire_ns:0 () in
  let d =
    Sim_threads.run ~threads:2 ~ops_per_thread:5 (fun _ _ ->
        Sim_mutex.with_lock l1 (fun () ->
            Sim_mutex.with_lock l2 (fun () -> Clock.advance 50)))
  in
  check_bool "terminates with sane duration" true (d >= 500 && d < 100_000)

(* Fork-join: every task starts at the caller's instant, the results come
   back in index order, and the caller resumes at the slowest task. *)
let test_fork_join_results_and_join () =
  let span = Clock.start () in
  let starts = Array.make 4 (-1) in
  let r =
    Sim_threads.fork_join 4 (fun i ->
        starts.(i) <- Clock.elapsed span;
        Clock.advance ((4 - i) * 100);
        i * i)
  in
  Alcotest.(check (array int)) "results in index order" [| 0; 1; 4; 9 |] r;
  Alcotest.(check (array int)) "common start" (Array.make 4 0) starts;
  Alcotest.(check int) "clock at the join" 400 (Clock.elapsed span);
  check_bool "scheduler stopped" false (Sim_threads.active ());
  let one = Sim_threads.fork_join 1 (fun _ -> Sim_threads.active ()) in
  check_bool "one task runs inline" false one.(0);
  Alcotest.(check int) "no task, no time" 400
    (ignore (Sim_threads.fork_join 0 (fun _ -> Clock.advance 5));
     Clock.elapsed span)

(* A crash inside one task propagates, and the scheduler state is put back
   so the next run starts clean. *)
let test_fork_join_crash () =
  let escaped = ref false in
  Harness.crash_once ~after:0
    {
      Harness.setup = (fun () -> Arena.create ~size_bytes:(1 lsl 16) ());
      arenas = (fun arena -> [| arena |]);
      window =
        (fun arena ->
          match
            Sim_threads.fork_join 3 (fun i ->
                if i = 1 then Arena.nt_write arena 1024 1L;
                Sim_threads.current ())
          with
          | _ -> ()
          | exception Arena.Crash ->
              escaped := true;
              raise Arena.Crash);
      recover = (fun _ _ -> ());
      check =
        (fun _ () ->
          if not !escaped then Some "expected Arena.Crash out of the fork-join"
          else if Sim_threads.active () then Some "scheduler still active"
          else None);
    };
  Alcotest.(check int) "a later run is unaffected" 10
    (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun _ _ -> Clock.advance 10))

(* Inside a running scheduler's fiber the fork-join runs as a nested
   scheduler: the outer fiber resumes as itself, at its join. *)
let test_fork_join_nested () =
  let seen = ref [] in
  ignore
    (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun t _ ->
         let span = Clock.start () in
         let r =
           Sim_threads.fork_join 3 (fun i ->
               Clock.advance (10 * (i + 1));
               i)
         in
         seen :=
           ( t,
             Sim_threads.current (),
             Sim_threads.active (),
             Clock.elapsed span,
             Array.to_list r )
           :: !seen));
  Alcotest.(check int) "both outer fibers ran" 2 (List.length !seen);
  List.iter
    (fun (t, cur, active, took, r) ->
      Alcotest.(check int) "current fiber restored" t cur;
      check_bool "outer scheduler still active" true active;
      Alcotest.(check int) "outer fiber resumes at the join" 30 took;
      Alcotest.(check (list int)) "nested results" [ 0; 1; 2 ] r)
    !seen;
  check_bool "scheduler stopped" false (Sim_threads.active ())

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "torture"
    [
      ( "wal-order",
        List.map
          (fun (_, cfg) -> QCheck_alcotest.to_alcotest (prop_wal_order cfg))
          Scenarios.wal_configs );
      ( "sim-threads",
        [
          tc "deterministic" `Quick test_sim_threads_deterministic;
          tc "min-clock order" `Quick test_sim_threads_min_clock_order;
          tc "lock contention" `Quick test_sim_mutex_contention_under_fibers;
          tc "no cross-lock contention" `Quick test_sim_mutex_no_contention_different_locks;
          tc "nested locks across yields" `Quick test_fiber_holds_lock_across_inner_yield;
          tc "fork-join results and join" `Quick test_fork_join_results_and_join;
          tc "fork-join crash" `Quick test_fork_join_crash;
          tc "fork-join nested" `Quick test_fork_join_nested;
        ] );
    ]
