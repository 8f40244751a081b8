(* Inline compact log records: the allocation-free small-write fast path.

   Covers the encodings themselves (roundtrips, eligibility edges, the
   END word at its field limits, an older image's END pair), the append
   path on both bucketed variants, crash sweeps over every configuration
   with inline-eligible workloads and over transaction ids that straddle
   the pair's 14-bit limit, a deliberately torn pair and END word that
   recovery must truncate (mirroring test_faults.ml's full-record torn
   tests), and exhaustive crash-state enumeration over inline appends. *)

open Rewind_nvm
open Rewind
module Enum = Rewind_analysis.Enumerator
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios

let root_slot = 2

let configs = Scenarios.wal_configs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let fresh_log variant =
  let arena = Arena.create ~size_bytes:(4 lsl 20) () in
  let alloc = Alloc.create arena in
  (arena, alloc, Log.create variant alloc ~root_slot)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_update () =
  let arena, _alloc, log = fresh_log Log.Optimized in
  ignore
    (Log.append_record log ~lsn:12345 ~txn:77 ~typ:Record.Update ~addr:4096
       ~old_value:5L ~new_value:60000L ~undo_next:0);
  match Log.records log with
  | [ r ] ->
      check_bool "encoded inline" true (Record.is_inline r);
      check_int "lsn" 12345 (Record.lsn arena r);
      check_int "txn" 77 (Record.txn arena r);
      check_bool "typ" true (Record.typ arena r = Record.Update);
      check_int "addr" 4096 (Record.addr arena r);
      check_i64 "old" 5L (Record.old_value arena r);
      check_i64 "new" 60000L (Record.new_value arena r);
      check_int "undo_next" 0 (Record.undo_next arena r);
      check_int "prev_same_txn" 0 (Record.prev_same_txn arena r);
      check_bool "verify" true (Record.verify arena r)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let test_roundtrip_clr () =
  let arena, _alloc, log = fresh_log Log.Optimized in
  ignore
    (Log.append_record log ~lsn:99 ~txn:3 ~typ:Record.Clr ~addr:128
       ~old_value:7L ~new_value:42L ~undo_next:88);
  match Log.records log with
  | [ r ] ->
      check_bool "encoded inline" true (Record.is_inline r);
      check_bool "typ" true (Record.typ arena r = Record.Clr);
      (* a CLR's old value is write-only system-wide: dropped, decodes 0 *)
      check_i64 "old dropped" 0L (Record.old_value arena r);
      check_i64 "new" 42L (Record.new_value arena r);
      check_int "undo_next" 88 (Record.undo_next arena r)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let test_roundtrip_internal () =
  let arena, _alloc, log = fresh_log Log.Optimized in
  (* internal records (txn 0, lsn 0) carry 36-bit images *)
  let big = Int64.of_int ((1 lsl 36) - 1) in
  ignore
    (Log.append_record log ~lsn:0 ~txn:0 ~typ:Record.Update ~addr:512
       ~old_value:big ~new_value:(Int64.of_int 0xABCDE1234) ~undo_next:0);
  match Log.records log with
  | [ r ] ->
      check_bool "encoded inline" true (Record.is_inline r);
      check_int "lsn" 0 (Record.lsn arena r);
      check_int "txn" 0 (Record.txn arena r);
      check_i64 "old" big (Record.old_value arena r);
      check_i64 "new" 0xABCDE1234L (Record.new_value arena r)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let test_ineligible_fields () =
  let none ~ctx v =
    check_bool ctx true (v = None)
  in
  let enc ?(lsn = 1) ?(txn = 1) ?(typ = Record.Update) ?(addr = 64)
      ?(old_value = 1L) ?(new_value = 2L) ?(undo_next = 0) () =
    Record.inline_encode ~lsn ~txn ~typ ~addr ~old_value ~new_value ~undo_next
  in
  check_bool "baseline eligible" true (enc () <> None);
  none ~ctx:"txn too wide" (enc ~txn:(1 lsl 14) ());
  none ~ctx:"lsn too wide" (enc ~lsn:(1 lsl 26) ());
  none ~ctx:"user image too wide" (enc ~old_value:(Int64.of_int (1 lsl 16)) ());
  none ~ctx:"negative image" (enc ~new_value:(-1L) ());
  none ~ctx:"unaligned addr" (enc ~addr:65 ());
  none ~ctx:"addr out of range" (enc ~addr:(1 lsl 31) ());
  none ~ctx:"delete not compact" (enc ~typ:Record.Delete ());
  none ~ctx:"update with undo_next" (enc ~undo_next:5 ());
  none ~ctx:"user END is an END word, not a pair"
    (enc ~typ:Record.End ~addr:0 ~old_value:0L ~new_value:0L ());
  (* internal eligibility is wider on images, narrower on provenance *)
  check_bool "internal wide image ok" true
    (enc ~lsn:0 ~txn:0 ~old_value:(Int64.of_int ((1 lsl 36) - 1)) () <> None);
  none ~ctx:"internal image too wide"
    (enc ~lsn:0 ~txn:0 ~old_value:(Int64.of_int (1 lsl 36)) ())

(* The END word holds a payload-free user END up to each field's limit;
   one past a limit, or any payload, and the END is a full record. *)
let test_end_word_limits () =
  let end_at ?(addr = 0) ~lsn ~txn () =
    let arena, _alloc, log = fresh_log Log.Optimized in
    ignore
      (Log.append_record ~is_end:true log ~lsn ~txn ~typ:Record.End ~addr
         ~old_value:0L ~new_value:0L ~undo_next:0);
    match Log.records log with
    | [ r ] -> (arena, log, r)
    | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)
  in
  let max_txn = (1 lsl 17) - 1 and max_lsn = (1 lsl 26) - 1 in
  let arena, log, r = end_at ~lsn:max_lsn ~txn:max_txn () in
  check_bool "END word at both limits" true (Record.is_inline r);
  check_int "one slot" 1 (fst (Log.occupancy_stats log));
  check_int "lsn" max_lsn (Record.lsn arena r);
  check_int "txn" max_txn (Record.txn arena r);
  check_bool "typ" true (Record.typ arena r = Record.End);
  check_int "addr" 0 (Record.addr arena r);
  check_i64 "old" 0L (Record.old_value arena r);
  check_i64 "new" 0L (Record.new_value arena r);
  check_int "undo_next" 0 (Record.undo_next arena r);
  check_bool "verify" true (Record.verify arena r);
  let full ctx (_, _, r) = check_bool ctx false (Record.is_inline r) in
  full "txn 2^17 is a full record" (end_at ~lsn:1 ~txn:(1 lsl 17) ());
  full "lsn 2^26 is a full record" (end_at ~lsn:(1 lsl 26) ~txn:1 ());
  full "an END with a payload is a full record"
    (end_at ~addr:64 ~lsn:1 ~txn:1 ());
  check_bool "txn 0 (AAVLT-internal) takes no END word" true
    (Record.word_encode ~lsn:0 ~txn:0 ~typ:Record.End ~addr:0 ~old_value:0L
       ~new_value:0L ~undo_next:0
    = None)

(* A user END pair, as logs written before the END word hold them: the
   pair decoder still reads it, and [attach] keeps it.  The words are
   built by hand from the layout in record.ml. *)
let test_old_end_pair variant () =
  let arena, _alloc, log = fresh_log variant in
  let txn = 9 and lsn = 4242 in
  let w0 = 6 lor (2 lsl 4) lor ((txn lor (lsn lsl 14)) lsl 22) and w1 = 7 in
  let c =
    Crc32.finish
      (Crc32.update_int64
         (Crc32.update_int64 Crc32.init (Int64.of_int w0))
         (Int64.of_int w1))
  in
  let w0 = w0 lor (((c lxor (c lsr 16)) land 0xFFFF) lsl 6) in
  ignore (Log.append_pair ~is_end:true ~lsn log ~txn w0 w1);
  let decoded log =
    match Log.records log with
    | [ r ] ->
        check_bool "a pair" true
          (Record.is_inline r && fst (Log.occupancy_stats log) = 2);
        check_bool "typ" true (Record.typ arena r = Record.End);
        check_int "txn" txn (Record.txn arena r);
        check_int "lsn" lsn (Record.lsn arena r)
    | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)
  in
  decoded log;
  Arena.crash arena;
  let log2 = Log.attach variant (Alloc.recover arena) ~root_slot in
  check_int "nothing torn" 0 (Log.torn_truncated log2);
  decoded log2

let test_fallback_to_full () =
  let arena, _alloc, log = fresh_log Log.Optimized in
  ignore
    (Log.append_record log ~lsn:1 ~txn:5 ~typ:Record.Update ~addr:64
       ~old_value:0L ~new_value:0x1_0000L ~undo_next:0);
  match Log.records log with
  | [ r ] ->
      check_bool "fell back to a full record" false (Record.is_inline r);
      check_i64 "new" 0x1_0000L (Record.new_value arena r);
      check_int "inline_appended" 0 (Log.inline_appended log)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Append path on the bucketed variants                                *)
(* ------------------------------------------------------------------ *)

let test_append_readback variant () =
  let arena, _alloc, log = fresh_log variant in
  let n = 100 in
  for i = 1 to n do
    ignore
      (Log.append_record log ~lsn:i ~txn:1 ~typ:Record.Update ~addr:(8 * i)
         ~old_value:(Int64.of_int (i - 1))
         ~new_value:(Int64.of_int i) ~undo_next:0)
  done;
  Log.flush_group log;
  check_int "all inline" n (Log.inline_appended log);
  check_int "length counts pairs once" n (Log.length log);
  let lsns = List.map (fun r -> Record.lsn arena r) (Log.records log) in
  check_bool "append order preserved" true
    (lsns = List.init n (fun i -> i + 1));
  let back = ref [] in
  Log.iter_back log (fun r -> back := Record.lsn arena r :: !back);
  check_bool "backward scan agrees" true (!back = lsns);
  (* a clean crash + attach keeps every persisted pair *)
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let log2 = Log.attach variant alloc2 ~root_slot in
  check_int "pairs survive reattach" n (Log.length log2);
  check_int "nothing torn" 0 (Log.torn_truncated log2)

let test_remove_inline variant () =
  let arena, _alloc, log = fresh_log variant in
  for i = 1 to 10 do
    ignore
      (Log.append_record log ~lsn:i ~txn:(i mod 2) ~typ:Record.Update
         ~addr:(8 * i) ~old_value:0L ~new_value:(Int64.of_int i) ~undo_next:0)
  done;
  Log.flush_group log;
  Log.remove_where log (fun r -> Record.txn arena r = 0);
  check_int "odd-txn records remain" 5 (Log.length log);
  Log.iter log (fun r -> check_int "survivor txn" 1 (Record.txn arena r))

(* An END word's handle removes exactly its one slot. *)
let test_remove_end_word_handle variant () =
  let _arena, _alloc, log = fresh_log variant in
  let append_end lsn =
    Log.append_record ~is_end:true log ~lsn ~txn:1 ~typ:Record.End ~addr:0
      ~old_value:0L ~new_value:0L ~undo_next:0
  in
  let h = append_end 1 in
  ignore (append_end 2);
  Log.remove_handle log h;
  check_int "one END word left" 1 (Log.length log);
  check_bool "occupancy coherent" true (Log.check_occupancy log = [])

(* ------------------------------------------------------------------ *)
(* Crash sweep: small-write workload over every configuration          *)
(* ------------------------------------------------------------------ *)

(* test_faults.ml's small mixed world: inline-eligible values encode
   their writer so recovery invariants are checkable. *)
let script = Scenarios.mixed_script ~txns:6 ~writes:2 ~checkpoint_at:4

let fresh_setup cfg =
  let arena = Arena.create ~size_bytes:(4 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
  (arena, tm, cells)

(* Crash anywhere in the script: after recovery the log is empty and no
   cell holds a value from a rolled-back transaction. *)
let test_crash_sweep (_, cfg) () =
  ignore
    (Harness.every_event
       (Scenarios.mixed ~size_bytes:(4 lsl 20) ~txns:6 ~writes:2
          ~checkpoint_at:4 cfg))

(* With the fast path live, the one-layer bucketed configurations must
   actually take it for this small-write workload. *)
let test_sweep_uses_inline () =
  List.iter
    (fun (name, cfg) ->
      let arena, tm, cells = fresh_setup cfg in
      script tm cells;
      ignore arena;
      check_bool (name ^ ": inline path exercised") true
        (Log.inline_appended (Tm.log tm) > 0))
    [
      ("1L-NFP", Rewind.config_1l_nfp);
      ("1L-FP", Rewind.config_1l_fp);
      ("batch8", Rewind.config_batch ());
    ]

(* Crash sweep over transaction ids that straddle 2^14: the pair's txn
   field ends there, so the window's UPDATEs and CLRs switch from pairs to
   full records mid-script while every END stays an END word. *)
let straddling cfg =
  Scenarios.tm_cells ~size_bytes:(4 lsl 20) ~n:8 cfg
    ~prepare:(fun tm _ ->
      (* the window's six transactions get ids 16381 .. 16386 *)
      for _ = 1 to (1 lsl 14) - 4 do
        ignore (Tm.begin_txn tm)
      done)
    ~window:(fun tm cells () -> script tm cells)
    ~check:Scenarios.no_rolled_back

let test_straddle_sweep cfg () =
  let scenario = straddling cfg in
  let w = scenario.Harness.setup () in
  scenario.Harness.window w;
  let s = Arena.stats (scenario.Harness.arenas w).(0) in
  check_bool "pairs and full records both logged" true
    (s.Stats.inline_records > 0 && s.Stats.full_records > 0);
  ignore (Harness.every_event scenario)

(* ------------------------------------------------------------------ *)
(* Torn compact records                                                *)
(* ------------------------------------------------------------------ *)

(* Mirror of test_faults.ml's corrupt-record test, pinned to the compact
   forms: after the crash, tear the newest record — an UPDATE pair's
   second word, or (with [commit_last]) the committing END word's CRC —
   and require recovery to truncate it by its checksum. *)
let test_torn_truncated ~commit_last (name, cfg) () =
  let arena, tm, cells = fresh_setup cfg in
  let txn = Tm.begin_txn tm in
  Tm.write tm txn ~addr:cells.(0) ~value:42L;
  Tm.commit tm txn;
  let txn2 = Tm.begin_txn tm in
  Tm.write tm txn2 ~addr:cells.(1) ~value:43L;
  Tm.write tm txn2 ~addr:cells.(2) ~value:44L;
  if commit_last then Tm.commit ~clear:false tm txn2;
  Log.flush_group (Tm.log tm);
  let recs = Log.records (Tm.log tm) in
  check_bool (name ^ ": records present pre-crash") true (recs <> []);
  let r = List.hd (List.rev recs) in
  check_bool (name ^ ": newest record's form") true
    (Record.is_inline r && (Record.typ arena r = Record.End) = commit_last);
  Arena.crash arena;
  if commit_last then Arena.corrupt arena (Record.inline_slot r + 1) 1
  else Arena.corrupt arena (Record.inline_slot r + 8) 8;
  let alloc2 = Alloc.recover arena in
  let tm2 =
    try Tm.attach ~cfg alloc2 ~root_slot
    with e ->
      Alcotest.failf "%s: recovery raised %s" name (Printexc.to_string e)
  in
  check_bool
    (name ^ ": torn record counted in stats")
    true
    ((Arena.stats arena).Stats.torn_records >= 1);
  (match Tm.last_recovery tm2 with
  | None -> Alcotest.fail (name ^ ": no recovery report")
  | Some rep ->
      check_bool (name ^ ": report shows truncation") true
        (rep.Tm.torn_truncated >= 1));
  check_int (name ^ ": log cleared") 0 (Log.length (Tm.log tm2));
  (* without its END, the second transaction is undone *)
  check_i64 (name ^ ": torn transaction undone") 0L
    (Arena.read arena cells.(1))

(* ------------------------------------------------------------------ *)
(* Exhaustive crash-state enumeration over inline appends              *)
(* ------------------------------------------------------------------ *)

let test_enumerate (name, cfg) () =
  let scenario = Rewind_benchlib.Crash_scenarios.wal_txn cfg in
  let w = scenario.Harness.setup () in
  scenario.Harness.window w;
  check_bool (name ^ ": inline path exercised") true
    ((Arena.stats (scenario.arenas w).(0)).Stats.inline_records > 0);
  let stats = Harness.every_fence_subset scenario in
  check_bool (name ^ ": crash states explored") true (stats.Enum.crash_states > 0)

(* Every crash state of a transaction whose UPDATE pairs include one
   that straddles a cacheline, the pair that can tear between its two
   write-backs: the transaction is all-or-nothing. *)
let test_enumerate_straddling_pair (name, cfg) () =
  let straddles arena r =
    Record.is_inline r
    && Record.typ arena r <> Record.End
    && Record.inline_slot r / 64 <> (Record.inline_slot r + 8) / 64
  in
  let scenario =
    Scenarios.tm_cells ~size_bytes:(1 lsl 20) ~n:4 cfg
      ~prepare:(fun _ _ -> ref false)
      ~window:(fun tm cells straddled ->
        let txn = Tm.begin_txn tm in
        Array.iteri
          (fun i c -> Tm.write tm txn ~addr:c ~value:(Int64.of_int (i + 1)))
          cells;
        let log = Tm.log tm in
        straddled := List.exists (straddles (Log.arena log)) (Log.records log);
        Tm.commit tm txn)
      ~check:(fun _ _ got ->
        match Array.to_list got with
        | [ 0L; 0L; 0L; 0L ] | [ 1L; 2L; 3L; 4L ] -> None
        | _ -> Some (Fmt.str "partial state %a" Scenarios.pp_cells got))
  in
  let w = scenario.Harness.setup () in
  scenario.Harness.window w;
  check_bool (name ^ ": a pair straddles a line") true !(w.Scenarios.x);
  let stats = Harness.every_fence_subset scenario in
  check_bool (name ^ ": crash states explored") true
    (stats.Enum.crash_states > 0)

let () =
  let tc = Alcotest.test_case in
  let per_config name speed f =
    List.map (fun (cn, cfg) -> tc (name ^ " [" ^ cn ^ "]") speed (f (cn, cfg))) configs
  in
  let bucketed (_, cfg) = cfg.Tm.variant <> Log.Simple in
  let one_layer_bucketed c =
    bucketed c && (snd c).Tm.layers = Tm.One_layer
  in
  Alcotest.run "inline"
    [
      ( "encoding",
        [
          tc "update roundtrip" `Quick test_roundtrip_update;
          tc "clr roundtrip" `Quick test_roundtrip_clr;
          tc "internal roundtrip" `Quick test_roundtrip_internal;
          tc "ineligible fields" `Quick test_ineligible_fields;
          tc "END word at its limits" `Quick test_end_word_limits;
          tc "older END pair [optimized]" `Quick
            (test_old_end_pair Log.Optimized);
          tc "older END pair [batch8]" `Quick (test_old_end_pair (Log.Batch 8));
          tc "fallback to full record" `Quick test_fallback_to_full;
        ] );
      ( "append",
        [
          tc "readback [optimized]" `Quick (test_append_readback Log.Optimized);
          tc "readback [batch8]" `Quick (test_append_readback (Log.Batch 8));
          tc "remove_where [optimized]" `Quick (test_remove_inline Log.Optimized);
          tc "remove_where [batch8]" `Quick (test_remove_inline (Log.Batch 8));
          tc "remove END word by handle [optimized]" `Quick
            (test_remove_end_word_handle Log.Optimized);
          tc "remove END word by handle [batch8]" `Quick
            (test_remove_end_word_handle (Log.Batch 8));
          tc "small-write workload goes inline" `Quick test_sweep_uses_inline;
        ] );
      ("crash-sweep", per_config "crash everywhere" `Slow test_crash_sweep);
      ( "txn-straddle",
        List.concat_map
          (fun (vn, cfg) ->
            List.map
              (fun p ->
                tc (Fmt.str "crash everywhere [%s x%d]" vn p) `Slow
                  (test_straddle_sweep (Rewind.with_partitions p cfg)))
              [ 1; 4 ])
          [
            ("1L-NFP", Rewind.config_1l_nfp);
            ("batch8", Rewind.config_batch ());
          ] );
      ( "torn",
        List.concat_map
          (fun ((cn, cfg) as c) ->
            if one_layer_bucketed c then
              [
                tc ("torn pair [" ^ cn ^ "]") `Quick
                  (test_torn_truncated ~commit_last:false (cn, cfg));
                tc ("torn END word [" ^ cn ^ "]") `Quick
                  (test_torn_truncated ~commit_last:true (cn, cfg));
              ]
            else [])
          configs );
      ( "enumerate",
        List.filter_map
          (fun ((cn, cfg) as c) ->
            if one_layer_bucketed c then
              Some (tc ("all crash states [" ^ cn ^ "]") `Slow
                      (test_enumerate (cn, cfg)))
            else None)
          configs
        @ List.filter_map
            (fun ((cn, cfg) as c) ->
              if one_layer_bucketed c then
                Some
                  (tc ("straddling pair [" ^ cn ^ "]") `Slow
                     (test_enumerate_straddling_pair (cn, cfg)))
              else None)
            configs );
    ]
