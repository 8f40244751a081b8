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

let root_slot = 2
let cfg = Rewind.config_incll
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

let shadow_events arena =
  let s = Arena.stats arena in
  s.Stats.nt_stores + s.Stats.flushes

let setup ?(n_cells = 8) () =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cells = Array.init n_cells (fun _ -> Tm.alloc_cell tm) in
  (arena, tm, cells)

(* Recover [arena] with the persistency sanitizer attached; any violation
   fails [what]. *)
let attach_sanitized what arena =
  let alloc = Alloc.recover arena in
  let san = San.attach ~mode:San.Collect arena in
  let tm = Tm.attach ~cfg alloc ~root_slot in
  check_int (what ^ ": recovery is sanitizer-clean") 0
    (List.length (San.violations san));
  San.detach san;
  tm

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

let test_crash_sweep () =
  (* Dry run: count the persistence events an uninterrupted run makes.
     Every one of them is inside an epoch advance — the protocol's whole
     crash surface — so the sweep below exercises each advance point. *)
  let arena, tm, cells = setup ~n_cells:n_sweep_cells () in
  let before = shadow_events arena in
  sweep_workload tm cells;
  let events = shadow_events arena - before in
  check_bool "the workload persists something" true (events > 0);
  let tried = ref 0 in
  for k = 1 to events do
    let arena, tm, cells = setup ~n_cells:n_sweep_cells () in
    Arena.arm_crash arena ~after:(k - 1);
    (match sweep_workload tm cells with
    | () -> ()
    | exception Arena.Crash -> ());
    if Arena.crashed arena then begin
      incr tried;
      Arena.crash arena;
      let tm2 = attach_sanitized (Fmt.str "k=%d" k) arena in
      (* the durable epoch counter names the boundary recovery must land
         on: crashed epoch e (recovery reopened e+1) committed boundary
         e-1 *)
      let e_crash = Option.get (Tm.current_epoch tm2) - 1 in
      check_bool
        (Fmt.str "k=%d: crashed epoch %d in range" k e_crash)
        true
        (e_crash >= 1 && e_crash <= Array.length boundaries);
      let expect = boundaries.(e_crash - 1) in
      Array.iteri
        (fun i c ->
          let got = Arena.read arena c in
          if got <> expect.(i) then
            Alcotest.failf
              "crash at event %d/%d (epoch %d): cell %d = %Ld, want %Ld" k
              events e_crash i got expect.(i))
        cells
    end
  done;
  check_bool "sweep hit crash points" true (!tried > 0)

(* ------------------------------------------------------------------ *)
(* Crash during recovery                                               *)
(* ------------------------------------------------------------------ *)

(* The sweep workload, then a crash mid-epoch after 999/998's lines were
   written back: recovery has cells to rewind and lines to flush. *)
let idem_setup () =
  let arena, tm, cells = setup ~n_cells:n_sweep_cells () in
  sweep_workload tm cells;
  Arena.flush_line arena cells.(0);
  Arena.flush_line arena cells.(1);
  Arena.crash arena;
  (arena, cells)

let recovered_state arena cells tm =
  (Array.map (Arena.read arena) cells, Option.get (Tm.current_epoch tm))

(* DESIGN §5d's idempotence: crash the recovery at each of its
   persistence events; a second, sanitizer-attached recovery must reach
   the uninterrupted recovery's cells and epoch. *)
let test_recovery_idempotent () =
  let arena, cells = idem_setup () in
  let before = shadow_events arena in
  let tm = Tm.attach ~cfg (Alloc.recover arena) ~root_slot in
  let events = shadow_events arena - before in
  check_bool "recovery persists events" true (events > 1);
  let reference = recovered_state arena cells tm in
  check_bool "reference: the last boundary, crashed epoch 4 + 1" true
    (reference = (boundaries.(3), 5));
  for k = 1 to events do
    let arena, cells = idem_setup () in
    Arena.arm_crash arena ~after:(k - 1);
    (match Tm.attach ~cfg (Alloc.recover arena) ~root_slot with
    | _ -> Alcotest.failf "k=%d/%d: recovery did not crash" k events
    | exception Arena.Crash -> ());
    let tm2 = attach_sanitized (Fmt.str "k=%d/%d" k events) arena in
    if recovered_state arena cells tm2 <> reference then
      Alcotest.failf "crash at recovery event %d/%d: state differs" k events
  done

(* ------------------------------------------------------------------ *)
(* Enumerated crash states on the at-every-event grid                  *)
(* ------------------------------------------------------------------ *)

(* Two advanced epochs; the fine grid reaches the torn first-store
   states (undo captured, tag or data not yet stored) and every cache
   state inside both advances.  Only the three boundaries are legal, and
   the sanitizer must stay clean through every recovery. *)
let test_enumerate () =
  let arena = Arena.create ~size_bytes:(64 * 1024) () in
  let alloc = Alloc.create arena in
  let addrs = ref [||] in
  let stats =
    Enum.run ~at_every_event:true arena
      ~workload:(fun () ->
        let tm = Tm.create ~cfg alloc ~root_slot in
        let a = Tm.alloc_cell tm in
        let b = Tm.alloc_cell tm in
        let c = Tm.alloc_cell tm in
        addrs := [| a; b; c |];
        let txn = Tm.begin_txn tm in
        Tm.write tm txn ~addr:a ~value:7L;
        Tm.write tm txn ~addr:b ~value:9L;
        Tm.commit tm txn;
        Tm.advance_epoch tm;
        let txn = Tm.begin_txn tm in
        Tm.write tm txn ~addr:a ~value:8L;
        Tm.write tm txn ~addr:c ~value:11L;
        Tm.commit tm txn;
        Tm.advance_epoch tm)
      ~recover:(fun crashed ->
        let alloc2 = Alloc.recover crashed in
        let san = San.attach ~mode:San.Collect crashed in
        let _tm = Tm.attach ~cfg alloc2 ~root_slot in
        let violations = List.length (San.violations san) in
        San.detach san;
        let a = !addrs.(0) and b = !addrs.(1) and c = !addrs.(2) in
        ( Arena.read crashed a,
          Arena.read crashed b,
          Arena.read crashed c,
          violations ))
      ~check:(fun (va, vb, vc, violations) ->
        if violations > 0 then
          Some (Fmt.str "%d sanitizer violations during recovery" violations)
        else
          match (va, vb, vc) with
          | 0L, 0L, 0L | 7L, 9L, 0L | 8L, 9L, 11L -> None
          | _ ->
              Some
                (Fmt.str "non-epoch-boundary state a=%Ld b=%Ld c=%Ld" va vb vc))
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

let test_guards () =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  expect_invalid_arg "partitioned incll" (fun () ->
      Tm.create ~cfg:{ cfg with Tm.partitions = 2 } alloc ~root_slot);
  expect_invalid_arg "two-layer incll" (fun () ->
      Tm.create ~cfg:{ cfg with Tm.layers = Tm.Two_layer } alloc ~root_slot);
  let tm = Tm.create ~cfg alloc ~root_slot in
  expect_invalid_arg "no log to expose" (fun () -> Tm.log tm);
  expect_invalid_arg "no WAL records" (fun () ->
      Tm.log_update tm 1 ~addr:0 ~old_value:0L ~new_value:1L);
  expect_invalid_arg "no delete records" (fun () ->
      Tm.log_delete tm 1 ~addr:0 ~size:8);
  let cell = Tm.alloc_cell tm in
  let raw = Alloc.alloc alloc 8 in
  let txn = Tm.begin_txn tm in
  expect_invalid_arg "unregistered address" (fun () ->
      Tm.write tm txn ~addr:raw ~value:1L);
  Tm.write tm txn ~addr:cell ~value:1L;
  expect_invalid_arg "no 2PC in-doubt state" (fun () ->
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
  expect_invalid_arg "advance_epoch on a WAL config" (fun () ->
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
