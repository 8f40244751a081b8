(* Inline compact log records: the allocation-free small-write fast path.

   Covers the encodings themselves (roundtrips, eligibility edges, the
   END word at its field limits), the append path on both bucketed
   variants, a crash sweep over transaction ids that straddle the compact
   forms' 17-bit limit, a deliberately torn pair and END word that
   recovery must truncate (mirroring test_faults.ml's full-record torn
   tests), and exhaustive crash-state enumeration over inline appends. *)

open Rewind_nvm
open Rewind
module Enum = Rewind_analysis.Enumerator
module Harness = Rewind_analysis.Crash_harness
module Scenarios = Rewind_benchlib.Crash_scenarios
open Support

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
  (* the txn and LSN fields end at 17 and 26 bits, the address at 2^28 *)
  let max_txn = (1 lsl 17) - 1 and max_lsn = (1 lsl 26) - 1 in
  (match enc ~txn:max_txn ~lsn:max_lsn ~addr:((1 lsl 28) - 8) () with
  | None -> Alcotest.fail "pair at its field limits not eligible"
  | Some (w0, w1) ->
      check_bool "pair at its field limits is valid" true
        (Record.inline_pair_valid ~w0 ~w1));
  none ~ctx:"txn too wide" (enc ~txn:(1 lsl 17) ());
  none ~ctx:"lsn too wide" (enc ~lsn:(1 lsl 26) ());
  none ~ctx:"user image too wide" (enc ~old_value:(Int64.of_int (1 lsl 16)) ());
  none ~ctx:"negative image" (enc ~new_value:(-1L) ());
  none ~ctx:"unaligned addr" (enc ~addr:65 ());
  none ~ctx:"addr out of range" (enc ~addr:(1 lsl 28) ());
  none ~ctx:"delete not compact" (enc ~typ:Record.Delete ());
  none ~ctx:"update with undo_next" (enc ~undo_next:5 ());
  none ~ctx:"user END is an END word, not a pair"
    (enc ~typ:Record.End ~addr:0 ~old_value:0L ~new_value:0L ());
  (* internal eligibility is wider on images, narrower on provenance *)
  check_bool "internal wide image ok" true
    (enc ~lsn:0 ~txn:0 ~old_value:(Int64.of_int ((1 lsl 36) - 1)) () <> None);
  none ~ctx:"internal image too wide"
    (enc ~lsn:0 ~txn:0 ~old_value:(Int64.of_int (1 lsl 36)) ())

(* A pair's first-word tag (6 user, 5 internal) and its second word's
   kind must agree: a pair re-tagged under a matching CRC is invalid.  The
   CRC is recomputed here from the layout in record.ml. *)
let test_tag_kind_agree () =
  let with_crc w0 w1 =
    let w0 = w0 land lnot (0xFFFF lsl 3) in
    let c =
      Crc32.finish
        (Crc32.update_int64
           (Crc32.update_int64 Crc32.init (Int64.of_int w0))
           (Int64.of_int w1))
    in
    w0 lor (((c lxor (c lsr 16)) land 0xFFFF) lsl 3)
  in
  let retag w0 tag = (w0 land lnot 7) lor tag in
  let pair ~lsn ~txn =
    Option.get
      (Record.inline_encode ~lsn ~txn ~typ:Record.Update ~addr:64
         ~old_value:1L ~new_value:2L ~undo_next:0)
  in
  let user0, user1 = pair ~lsn:5 ~txn:3 in
  let int0, int1 = pair ~lsn:0 ~txn:0 in
  check_int "user tag" 6 (user0 land 7);
  check_int "internal tag" 5 (int0 land 7);
  check_bool "CRC recomputed as the encoder does" true
    (Record.inline_pair_valid ~w0:(with_crc user0 user1) ~w1:user1);
  check_bool "user pair re-tagged internal" false
    (Record.inline_pair_valid ~w0:(with_crc (retag user0 5) user1) ~w1:user1);
  check_bool "internal pair re-tagged user" false
    (Record.inline_pair_valid ~w0:(with_crc (retag int0 6) int1) ~w1:int1)

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
(* Small writes: the mixed world's inline-eligible workload            *)
(* ------------------------------------------------------------------ *)

(* The protocol table's short WAL world (test_protocols.ml), which
   crashes it at every event: inline-eligible values encode their writer
   so recovery invariants are checkable. *)
let script ?(p = Scenarios.progress ()) tm cells =
  Scenarios.mixed_script ~txns:6 ~writes:2 ~checkpoint_at:4 p tm cells

let fresh_setup cfg =
  let arena, alloc, tm = fresh ~size_bytes:(4 lsl 20) ~cfg () in
  let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
  (arena, tm, cells)

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
    (configs [ "1l-nfp"; "1l-fp"; "batch" ])

(* Crash sweep over transaction ids that straddle 2^17: the txn field of
   the pair and of the END word ends there, so the window's records switch
   from compact forms to full records mid-script. *)
let straddling cfg =
  Scenarios.tm_cells ~size_bytes:(4 lsl 20) ~n:8 cfg
    ~prepare:(fun tm _ ->
      (* the window's six transactions get ids 131069 .. 131074 *)
      for _ = 1 to (1 lsl 17) - 4 do
        ignore (Tm.begin_txn tm)
      done;
      Scenarios.progress ())
    ~window:(fun tm cells p -> script ~p tm cells)
    ~check:Scenarios.committed_prefix

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
          tc "pair tag and kind agree" `Quick test_tag_kind_agree;
          tc "END word at its limits" `Quick test_end_word_limits;
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
      ( "txn-straddle",
        List.map
          (fun (cn, cfg) ->
            tc (Fmt.str "crash everywhere [%s]" cn) `Slow
              (test_straddle_sweep cfg))
          (configs [ "1l-nfp"; "1l-nfp-p4"; "batch"; "batch-p4" ]) );
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
          Scenarios.wal_configs );
      ( "enumerate",
        List.filter_map
          (fun ((cn, cfg) as c) ->
            if one_layer_bucketed c then
              Some (tc ("all crash states [" ^ cn ^ "]") `Slow
                      (test_enumerate (cn, cfg)))
            else None)
          Scenarios.wal_configs
        @ List.filter_map
            (fun ((cn, cfg) as c) ->
              if one_layer_bucketed c then
                Some
                  (tc ("straddling pair [" ^ cn ^ "]") `Slow
                     (test_enumerate_straddling_pair (cn, cfg)))
              else None)
            Scenarios.wal_configs );
    ]
