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
      writer blocked on the latch the checkpoint holds. *)

open Rewind_nvm
open Rewind
module Enum = Rewind_analysis.Enumerator
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios
module San = Rewind_analysis.Sanitizer

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
     checkpoint starts; its write ends after the checkpoint iff it waited
     for the latch. *)
  let phase i =
    let w, v, _ = st.writes.(i) in
    let took = Array.make 2 0 in
    ignore
      (Sim_threads.run ~threads:2 ~ops_per_thread:1 (fun f _ ->
           let c = Clock.start () in
           if f = 0 then Tm.write tm w ~addr:cells.(4 + i) ~value:v
           else Tm.checkpoint tm;
           took.(f) <- Clock.elapsed c));
    expect (took.(0) >= took.(1)) "w%d waited for the checkpoint" (i + 1);
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
      ( "straddle",
        List.map
          (fun (cn, cfg) ->
            Alcotest.test_case
              (Fmt.str "checkpoint straddling open work [%s]" cn)
              `Quick (test_straddle cfg))
          [
            ("batch8", Rewind.config_batch ());
            ("batch8 x4", Rewind.with_partitions 4 (Rewind.config_batch ()));
            ("2l-nfp", Rewind.config_2l_nfp);
          ] );
    ]
