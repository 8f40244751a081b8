(* Reattach robustness, two halves.

   1. The durable configuration fingerprint: {!Tm.create} records the
      partition count and the semantic configuration bits at the root
      slot, and {!Tm.attach} refuses — with an error naming both sides —
      to reattach with a configuration whose durable layout differs:
      partition count, policy, layers, log variant, batch group or bucket
      capacity.  Recovering a partitioned log with the wrong partition
      count silently reads the wrong root slots; this closes that door.

   2. Recovery idempotence: recovery itself can crash — mid-analysis,
      mid-undo, mid-clearing — and a second recovery from the resulting
      image must reach exactly the state an uninterrupted recovery
      reaches, including the in-doubt (prepared) transactions that
      recovery must preserve.  Swept at every persistence event of the
      attach, across all six named configurations and two partitioned
      ones, with a prepared transaction (selective clearing) and without
      one (wholesale clearing). *)

open Rewind_nvm
open Rewind
module San = Rewind_analysis.Sanitizer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let root_slot = 2

let all_configs =
  [
    ("1l-nfp", Rewind.config_1l_nfp);
    ("1l-fp", Rewind.config_1l_fp);
    ("2l-nfp", Rewind.config_2l_nfp);
    ("2l-fp", Rewind.config_2l_fp);
    ("simple", Rewind.config_simple);
    ("batch4", Rewind.config_batch ~group:4 ());
  ]

(* Partitioned logs: recovery replays the k-way merge of the partitions'
   streams, so a crash mid-recovery must leave every partition able to
   repeat the merged history. *)
let partitioned_configs =
  [
    ("1l-nfp x4", Rewind.with_partitions 4 Rewind.config_1l_nfp);
    ("batch4 x2", Rewind.with_partitions 2 (Rewind.config_batch ~group:4 ()));
  ]

let shadow_events arena =
  let s = Arena.stats arena in
  s.Stats.nt_stores + s.Stats.flushes

(* ------------------------------------------------------------------ *)
(* 1. Configuration fingerprint                                        *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let expect_failure name needle f =
  match f () with
  | _ -> Alcotest.failf "%s: expected attach to fail" name
  | exception Failure msg ->
      if not (contains msg needle) then
        Alcotest.failf "%s: error %S does not mention %S" name msg needle

let test_attach_never_created () =
  let arena = Arena.create ~size_bytes:(4 lsl 20) () in
  let alloc = Alloc.create arena in
  expect_failure "fresh arena" "never initialised" (fun () ->
      Tm.attach alloc ~root_slot)

let test_attach_junk_slot () =
  let arena = Arena.create ~size_bytes:(4 lsl 20) () in
  let alloc = Alloc.create arena in
  Arena.root_set arena root_slot 0xDEADL;
  expect_failure "junk root slot" "fingerprint" (fun () ->
      Tm.attach alloc ~root_slot)

let test_attach_mismatches () =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  let cfg = Rewind.with_partitions 2 Rewind.config_1l_nfp in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cell = Alloc.alloc alloc 8 in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cell ~value:7L;
  Tm.commit tm txn;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let attempt cfg = Tm.attach ~cfg alloc2 ~root_slot in
  expect_failure "partition count" "mismatch" (fun () ->
      attempt (Rewind.with_partitions 4 Rewind.config_1l_nfp));
  expect_failure "policy" "mismatch" (fun () ->
      attempt (Rewind.with_partitions 2 Rewind.config_1l_fp));
  expect_failure "layers" "mismatch" (fun () ->
      attempt (Rewind.with_partitions 2 Rewind.config_2l_nfp));
  expect_failure "variant" "mismatch" (fun () ->
      attempt (Rewind.with_partitions 2 (Rewind.config_batch ())));
  expect_failure "bucket capacity" "mismatch" (fun () ->
      attempt (Rewind.with_partitions 2 { cfg with Tm.bucket_cap = 8 }));
  (* the latch model is volatile policy, not durable layout: it may
     legitimately differ between runs *)
  let tm2 =
    attempt (Rewind.with_partitions 2 { cfg with Tm.lockfree_latch = true })
  in
  check_int "recovered through a latch-model change" 7
    (Int64.to_int (Arena.read arena cell));
  ignore tm2

let test_attach_wrong_slot () =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  let _tm = Tm.create alloc ~root_slot in
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  (* slot 10 was never initialised — the error should say so rather than
     letting attach invent an empty manager over unrelated slots *)
  expect_failure "wrong root slot" "never initialised" (fun () ->
      Tm.attach alloc2 ~root_slot:10)

(* ------------------------------------------------------------------ *)
(* 2. Recovery idempotence: crash during recovery itself               *)
(* ------------------------------------------------------------------ *)

(* Deterministic history with work for every recovery phase: committed
   transactions overwriting a shared working set (redo + clearing), a
   live transaction (undo), and, with [~prepared], a prepared transaction
   (in-doubt, must survive any number of recoveries un-undone).  Without
   it nothing is in doubt and recovery clears the logs wholesale. *)
let idem_setup ~prepared cfg0 =
  let cfg = { cfg0 with Tm.bucket_cap = 8 } in
  let arena = Arena.create ~size_bytes:(16 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cells = Array.init 12 (fun _ -> Alloc.alloc alloc 8) in
  let expected = Array.make 12 0L in
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
  Tm.write tm live ~addr:cells.(8) ~value:8881L;
  Tm.write tm live ~addr:cells.(9) ~value:8882L;
  let in_doubt =
    if prepared then begin
      let prep = Tm.begin_txn tm in
      Tm.write tm prep ~addr:cells.(10) ~value:4242L;
      Tm.prepare tm prep ~gtid:77;
      (* in-doubt writes survive recovery un-undone *)
      expected.(10) <- 4242L;
      [ (prep, 77) ]
    end
    else []
  in
  (arena, cfg, cells, expected, in_doubt)

let snapshot arena cells tm =
  (Array.map (fun c -> Arena.read arena c) cells, Tm.in_doubt tm)

let test_recovery_idempotent ~prepared (name, cfg0) () =
  (* Uninterrupted recovery: the reference state, and the event count. *)
  let arena, cfg, cells, expected, in_doubt = idem_setup ~prepared cfg0 in
  Arena.crash arena;
  let before = shadow_events arena in
  let alloc = Alloc.recover arena in
  let tm = Tm.attach ~cfg alloc ~root_slot in
  let events = shadow_events arena - before in
  check_bool (name ^ ": recovery persists events") true (events > 0);
  let ref_cells, ref_doubt = snapshot arena cells tm in
  Alcotest.(check (list (pair int int)))
    (name ^ ": in-doubt set")
    in_doubt ref_doubt;
  Array.iteri
    (fun i v -> check_int (Fmt.str "%s: ref cell %d" name i)
        (Int64.to_int (if i < Array.length expected then expected.(i) else 0L))
        (Int64.to_int v))
    ref_cells;
  (* Crash the recovery at each of its persistence events (the countdown
     starts at the arming); the second, uninterrupted recovery must reach
     the reference state. *)
  for k = 1 to events do
    let arena, cfg, cells, _, _ = idem_setup ~prepared cfg0 in
    Arena.crash arena;
    Arena.arm_crash arena ~after:(k - 1);
    (match
       let alloc = Alloc.recover arena in
       ignore (Tm.attach ~cfg alloc ~root_slot)
     with
    | () ->
        Alcotest.failf "%s: recovery armed at event %d/%d did not crash" name
          k events
    | exception Arena.Crash -> ());
    let alloc2 = Alloc.recover arena in
    let san = San.attach ~mode:San.Collect arena in
    let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
    check_int
      (Fmt.str "%s k=%d/%d: second recovery sanitizer-clean" name k events)
      0
      (List.length (San.violations san));
    San.detach san;
    let got_cells, got_doubt = snapshot arena cells tm2 in
    if got_doubt <> ref_doubt then
      Alcotest.failf "%s: crash at recovery event %d/%d: in-doubt %a, want %a"
        name k events
        Fmt.(Dump.list (Dump.pair int int))
        got_doubt
        Fmt.(Dump.list (Dump.pair int int))
        ref_doubt;
    Array.iteri
      (fun i v ->
        if v <> ref_cells.(i) then
          Alcotest.failf
            "%s: crash at recovery event %d/%d: cell %d = %Ld, want %Ld" name
            k events i v ref_cells.(i))
      got_cells
  done

let () =
  Alcotest.run "reattach"
    [
      ( "config-fingerprint",
        [
          Alcotest.test_case "never created" `Quick test_attach_never_created;
          Alcotest.test_case "junk root slot" `Quick test_attach_junk_slot;
          Alcotest.test_case "semantic mismatches" `Quick test_attach_mismatches;
          Alcotest.test_case "wrong root slot" `Quick test_attach_wrong_slot;
        ] );
      ( "recovery-idempotence",
        List.concat_map
          (fun (cn, cfg) ->
            [
              Alcotest.test_case
                (Fmt.str "crash during recovery [%s]" cn)
                `Slow
                (test_recovery_idempotent ~prepared:true (cn, cfg));
              Alcotest.test_case
                (Fmt.str "crash during recovery, nothing in doubt [%s]" cn)
                `Slow
                (test_recovery_idempotent ~prepared:false (cn, cfg));
            ])
          (all_configs @ partitioned_configs) );
    ]
