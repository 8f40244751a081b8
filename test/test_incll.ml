(* In-cache-line logging (InCLL): epoch-granular crash consistency.

   The incll configuration replaces the WAL wholesale: each managed cell
   is a cache line holding data + in-line undo + epoch tag, durability is
   granted per epoch at [Tm.advance_epoch], and a crash rolls every cell
   back to the last epoch boundary.  What must hold:

   - group durability: a committed-but-unadvanced transaction does NOT
     survive a crash — recovery lands exactly on the last advance's
     boundary, never on a commit;
   - the boundary recovery lands on is named by the durable epoch
     counter, for a crash armed at *every* persistence event — including
     every point inside an epoch advance (mirroring
     test_checkpoint.ml's sweep structure);
   - the enumerator's finer [at_every_event] grid — which reaches the
     first-store-of-epoch torn-line states (undo written, tag not yet)
     and every mid-advance cache state — finds only epoch boundaries,
     with the persistency sanitizer clean throughout;
   - the durable cell directory survives chunk growth (> 63 cells);
   - the cost claim: ~1 NVM line write per small update at the designed
     cadence (one advance per full pass over the working set). *)

open Rewind_nvm
open Rewind
module San = Rewind_analysis.Sanitizer
module Enum = Rewind_analysis.Enumerator
module Harness = Rewind_analysis.Crash_harness

let root_slot = 2
let cfg = Rewind.config_incll
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

let setup ?(n_cells = 8) () =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cells = Array.init n_cells (fun _ -> Tm.alloc_cell tm) in
  (arena, tm, cells)

(* ------------------------------------------------------------------ *)
(* Protocol basics: captures, elision, epoch numbering                 *)
(* ------------------------------------------------------------------ *)

let test_basics () =
  let arena, tm, cells = setup ~n_cells:2 () in
  check_int "epoch starts at 1" 1 (Option.get (Tm.current_epoch tm));
  let st = Arena.stats arena in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(0) ~value:7L;
  Tm.write tm txn ~addr:cells.(0) ~value:8L;
  Tm.write tm txn ~addr:cells.(1) ~value:9L;
  Tm.commit tm txn;
  check_int "one capture per cell per epoch" 2 st.Stats.incll_captures;
  check_int "repeat store elided" 1 st.Stats.incll_elided;
  check_i64 "cached value visible" 8L (Arena.read arena cells.(0));
  Tm.advance_epoch tm;
  check_int "advance bumps the epoch" 2 (Option.get (Tm.current_epoch tm));
  check_int "advance counted" 1 st.Stats.epoch_advances;
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(0) ~value:10L;
  Tm.commit tm txn;
  check_int "fresh epoch captures again" 3 st.Stats.incll_captures

(* ------------------------------------------------------------------ *)
(* Group durability: recovery lands on the advance, not the commit     *)
(* ------------------------------------------------------------------ *)

let test_epoch_rollback () =
  let arena, tm, cells = setup ~n_cells:2 () in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(0) ~value:1L;
  Tm.commit tm txn;
  Tm.advance_epoch tm;
  (* committed but never advanced: epoch-granular durability loses it *)
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(1) ~value:2L;
  Tm.commit tm txn;
  (* evict the dirty line so the durable image carries the mid-epoch
     data with its in-line undo — the state recovery must rewind *)
  Arena.flush_line arena cells.(1);
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  check_i64 "advanced epoch survives" 1L (Arena.read arena cells.(0));
  check_i64 "unadvanced commit rolled back" 0L (Arena.read arena cells.(1));
  (match Tm.last_recovery tm2 with
  | Some r ->
      check_int "every cell scanned" 2 r.Tm.records_scanned;
      check_int "the mid-epoch cell rewound" 1 r.Tm.txns_undone
  | None -> Alcotest.fail "attach produced no recovery report");
  (* recovery itself advanced: crashed epoch 2, now at 3 *)
  check_int "recovery opens a fresh epoch" 3
    (Option.get (Tm.current_epoch tm2));
  (* the recovered manager keeps working *)
  let txn = Tm.begin_txn tm2 in
  Tm.write tm2 txn ~addr:cells.(1) ~value:5L;
  Tm.commit tm2 txn;
  Tm.advance_epoch tm2;
  check_i64 "post-recovery writes land" 5L (Arena.read arena cells.(1))

(* ------------------------------------------------------------------ *)
(* Volatile rollback and savepoints inside an epoch                    *)
(* ------------------------------------------------------------------ *)

let test_rollback_and_savepoint () =
  let arena, tm, cells = setup ~n_cells:2 () in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(0) ~value:5L;
  let sp = Tm.savepoint tm txn in
  Tm.write tm txn ~addr:cells.(0) ~value:6L;
  Tm.write tm txn ~addr:cells.(1) ~value:7L;
  Tm.rollback_to tm txn sp;
  check_i64 "partial rollback undoes past the savepoint" 5L
    (Arena.read arena cells.(0));
  check_i64 "partial rollback undoes the other cell" 0L
    (Arena.read arena cells.(1));
  Tm.commit tm txn;
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(1) ~value:9L;
  Tm.rollback tm txn;
  check_i64 "full rollback restores" 0L (Arena.read arena cells.(1));
  Tm.advance_epoch tm;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  check_i64 "rolled-back state is what the boundary holds" 5L
    (Arena.read arena cells.(0));
  check_i64 "aborted write never durable" 0L (Arena.read arena cells.(1))

(* A rejected write (not a cell) must not enter the undo journal, or the
   abort replays it first, raises again, and keeps the earlier writes. *)
let test_abort_after_rejected_write () =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cell = Tm.alloc_cell tm in
  let raw = Alloc.alloc alloc 8 in
  (match
     Tm.atomically tm (fun txn ->
         Tm.write tm txn ~addr:cell ~value:42L;
         Tm.write tm txn ~addr:raw ~value:1L)
   with
  | () -> Alcotest.fail "a write to a raw word must be rejected"
  | exception Invalid_argument _ -> ());
  check_i64 "the abort restored the cell" 0L (Arena.read arena cell);
  check_int "the abort counted" 1 (Tm.rollbacks tm);
  check_int "no transaction left open" 0 (Tm.active_transactions tm);
  Tm.advance_epoch tm;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let _tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  check_i64 "the aborted write never became durable" 0L
    (Arena.read arena cell)

(* ------------------------------------------------------------------ *)
(* Crash at every persistence event                                    *)
(* ------------------------------------------------------------------ *)

let n_sweep_cells = 8

(* Three advanced epochs, then a committed-but-unadvanced transaction
   and one left open.  The only legal recovered states are the four
   epoch boundaries; 999/998 must never survive. *)
let sweep_workload tm cells =
  for e = 1 to 3 do
    let txn = Tm.begin_txn tm in
    for i = 0 to n_sweep_cells - 1 do
      Tm.write tm txn ~addr:cells.(i) ~value:(Int64.of_int ((e * 100) + i))
    done;
    Tm.commit tm txn;
    Tm.advance_epoch tm
  done;
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(0) ~value:999L;
  Tm.commit tm txn;
  let live = Tm.begin_txn tm in
  Tm.write tm live ~addr:cells.(1) ~value:998L

let boundaries =
  [|
    Array.make n_sweep_cells 0L;
    Array.init n_sweep_cells (fun i -> Int64.of_int (100 + i));
    Array.init n_sweep_cells (fun i -> Int64.of_int (200 + i));
    Array.init n_sweep_cells (fun i -> Int64.of_int (300 + i));
  |]

(* [window] on a fresh manager over the sweep cells.  The durable epoch
   counter names the boundary recovery must land on: crashed epoch e
   (recovery reopened e+1) committed boundary e-1. *)
let epoch_scenario ~window =
  {
    Harness.setup = (fun () -> setup ~n_cells:n_sweep_cells ());
    arenas = (fun (arena, _, _) -> [| arena |]);
    window = (fun (arena, tm, cells) -> window arena tm cells);
    recover =
      (fun (_, _, cells) arena ->
        let tm2 = Tm.attach ~cfg (Alloc.recover arena) ~root_slot in
        (Option.get (Tm.current_epoch tm2), Array.map (Arena.read arena) cells));
    check =
      (fun _ (epoch, got) ->
        let e_crash = epoch - 1 in
        if e_crash < 1 || e_crash > Array.length boundaries then
          Some (Fmt.str "crashed epoch %d out of range" e_crash)
        else if got <> boundaries.(e_crash - 1) then
          Some
            (Fmt.str "epoch %d: cells [%a], want [%a]" e_crash
               Fmt.(array ~sep:semi int64)
               got
               Fmt.(array ~sep:semi int64)
               boundaries.(e_crash - 1))
        else None);
  }

(* Every persistence event of the workload is inside an epoch advance —
   the protocol's whole crash surface — so the sweep exercises each
   advance point. *)
let test_crash_sweep () =
  let s =
    Harness.every_event
      (epoch_scenario ~window:(fun _ tm cells -> sweep_workload tm cells))
  in
  check_bool "sweep hit crash points" true (s.Harness.crash_points > 0)

(* ------------------------------------------------------------------ *)
(* Crash during recovery                                               *)
(* ------------------------------------------------------------------ *)

(* DESIGN §5d's idempotence: the sweep workload, then a crash mid-epoch
   after 999/998's lines were written back, so recovery has cells to
   rewind and lines to flush.  Recovery is crashed at each of its
   persistence events; a second, sanitizer-attached recovery must reach
   the uninterrupted recovery's cells and epoch — the last boundary,
   crashed epoch 4 + 1. *)
let test_recovery_idempotent () =
  let s =
    epoch_scenario ~window:(fun arena tm cells ->
        sweep_workload tm cells;
        Arena.flush_line arena cells.(0);
        Arena.flush_line arena cells.(1))
  in
  let last_boundary w ((epoch, _) as r) =
    if epoch <> 5 then Some (Fmt.str "recovered to epoch %d, want 5" epoch)
    else s.check w r
  in
  let sweep =
    Harness.during_recovery { s with check = last_boundary }
      ~observe:(fun _ (epoch, cells) ->
        Fmt.str "epoch %d [%a]" epoch Fmt.(array ~sep:semi int64) cells)
  in
  check_bool "recovery persists events" true
    (sweep.Harness.recovery_crash_points > 1)

(* ------------------------------------------------------------------ *)
(* Enumerated crash states on the at-every-event grid                  *)
(* ------------------------------------------------------------------ *)

(* Two advanced epochs; the fine grid reaches the torn first-store
   states (undo captured, tag or data not yet stored) and every cache
   state inside both advances.  Only the three boundaries are legal, and
   the sanitizer must stay clean through every recovery. *)
let test_enumerate () =
  let stats =
    Harness.every_fence_subset ~at_every_event:true
      (Rewind_benchlib.Crash_scenarios.incll_epochs ())
  in
  check_bool "fine grid captured between fences" true
    (stats.Enum.capture_points > 6);
  check_bool "crash states explored" true (stats.Enum.crash_states > 0)

(* ------------------------------------------------------------------ *)
(* Durable directory growth past one chunk                             *)
(* ------------------------------------------------------------------ *)

let test_directory_chunks () =
  (* 130 cells = three directory chunks (63 + 63 + 4) *)
  let n = 130 in
  let arena, tm, cells = setup ~n_cells:n () in
  let txn = Tm.begin_txn tm in
  Array.iteri
    (fun i c -> Tm.write tm txn ~addr:c ~value:(Int64.of_int (i + 1)))
    cells;
  Tm.commit tm txn;
  Tm.advance_epoch tm;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  (match Tm.last_recovery tm2 with
  | Some r ->
      check_int "all chunks walked" n r.Tm.records_scanned;
      check_int "nothing to rewind at a boundary" 0 r.Tm.txns_undone
  | None -> Alcotest.fail "attach produced no recovery report");
  Array.iteri
    (fun i c ->
      check_i64 (Fmt.str "cell %d survives" i) (Int64.of_int (i + 1))
        (Arena.read arena c))
    cells

(* ------------------------------------------------------------------ *)
(* Configuration and API guards                                        *)
(* ------------------------------------------------------------------ *)

let expect_invalid_arg what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

(* Misuse caught by the manager itself, as a typed error. *)
let expect_misuse what ~is f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Tm.Error" what
  | exception Tm.Error e when is e -> ()
  | exception Tm.Error e ->
      Alcotest.failf "%s: unexpected Tm.Error: %s" what (Tm.error_message e)

let invalid_config = function Tm.Invalid_config _ -> true | _ -> false
let wal_only = function Tm.Wal_only _ -> true | _ -> false

let test_guards () =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  expect_misuse "partitioned incll" ~is:invalid_config (fun () ->
      Tm.create ~cfg:{ cfg with Tm.partitions = 2 } alloc ~root_slot);
  expect_misuse "two-layer incll" ~is:invalid_config (fun () ->
      Tm.create ~cfg:{ cfg with Tm.layers = Tm.Two_layer } alloc ~root_slot);
  let tm = Tm.create ~cfg alloc ~root_slot in
  expect_misuse "no log to expose" ~is:wal_only (fun () -> Tm.log tm);
  expect_misuse "no WAL records" ~is:wal_only (fun () ->
      Tm.log_update tm 1 ~addr:0 ~old_value:0L ~new_value:1L);
  expect_misuse "no delete records" ~is:wal_only (fun () ->
      Tm.log_delete tm 1 ~addr:0 ~size:8);
  let cell = Tm.alloc_cell tm in
  let raw = Alloc.alloc alloc 8 in
  let txn = Tm.begin_txn tm in
  expect_invalid_arg "unregistered address" (fun () ->
      Tm.write tm txn ~addr:raw ~value:1L);
  Tm.write tm txn ~addr:cell ~value:1L;
  expect_misuse "no 2PC in-doubt state" ~is:wal_only (fun () ->
      Tm.prepare tm txn ~gtid:7);
  expect_invalid_arg "advance needs quiescence" (fun () ->
      Tm.advance_epoch tm);
  (* checkpoint under load is a safe no-op, not an error *)
  Tm.checkpoint tm;
  check_int "busy checkpoint defers the advance" 1
    (Option.get (Tm.current_epoch tm));
  Tm.commit tm txn;
  Tm.checkpoint tm;
  check_int "quiescent checkpoint advances" 2
    (Option.get (Tm.current_epoch tm));
  (* and the guard the other way round: WAL managers have no epochs *)
  let arena2 = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc2 = Alloc.create arena2 in
  let wal = Tm.create alloc2 ~root_slot in
  expect_misuse "advance_epoch on a WAL config"
    ~is:(( = ) (Tm.Incll_only "Tm.advance_epoch")) (fun () ->
      Tm.advance_epoch wal);
  check_bool "WAL configs report no epoch" true (Tm.current_epoch wal = None)

(* ------------------------------------------------------------------ *)
(* The cost claim: ~1 NVM line write per update at the design cadence  *)
(* ------------------------------------------------------------------ *)

let test_line_write_rate () =
  let n_cells = 64 in
  let arena, tm, cells = setup ~n_cells () in
  let n_ops = n_cells * 20 in
  let before = Stats.snapshot (Arena.stats arena) in
  let txn = ref (Tm.begin_txn tm) in
  for i = 1 to n_ops do
    Tm.write tm !txn ~addr:cells.(i mod n_cells) ~value:(Int64.of_int i);
    if i mod 8 = 0 then begin
      Tm.commit tm !txn;
      if i mod n_cells = 0 then Tm.advance_epoch tm;
      txn := Tm.begin_txn tm
    end
  done;
  let d = Stats.diff (Arena.stats arena) before in
  let lines_per_op = float_of_int d.Stats.nvm_writes /. float_of_int n_ops in
  let fences_per_op = float_of_int d.Stats.fences /. float_of_int n_ops in
  check_bool
    (Fmt.str "%.3f NVM line writes/op <= 1.1" lines_per_op)
    true (lines_per_op <= 1.1);
  check_bool
    (Fmt.str "%.3f fences/op <= 0.1" fences_per_op)
    true (fences_per_op <= 0.1)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "incll"
    [
      ( "protocol",
        [
          Alcotest.test_case "captures, elision, epochs" `Quick test_basics;
          Alcotest.test_case "group durability (epoch rollback)" `Quick
            test_epoch_rollback;
          Alcotest.test_case "volatile rollback and savepoints" `Quick
            test_rollback_and_savepoint;
          Alcotest.test_case "abort after a rejected write" `Quick
            test_abort_after_rejected_write;
          Alcotest.test_case "directory chunk growth" `Quick
            test_directory_chunks;
          Alcotest.test_case "config and API guards" `Quick test_guards;
          Alcotest.test_case "~1 line write per update" `Quick
            test_line_write_rate;
        ] );
      ( "crash-sweep",
        [
          Alcotest.test_case "crash at every persistence event" `Quick
            test_crash_sweep;
          Alcotest.test_case "crash during recovery" `Quick
            test_recovery_idempotent;
        ] );
      ( "enumerator",
        [
          Alcotest.test_case "at-every-event crash states" `Quick
            test_enumerate;
        ] );
    ]
