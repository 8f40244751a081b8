(* Tests for the three log implementations (Simple / Optimized / Batch):
   append/iterate/remove behaviour, batch persistence semantics, cost
   properties, and post-crash reattachment. *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness
open Support

let variants =
  [ ("simple", Log.Simple); ("optimized", Log.Optimized); ("batch8", Log.Batch 8) ]

let fresh () =
  let arena = Arena.create ~size_bytes:(4 lsl 20) () in
  let alloc = Alloc.create arena in
  (arena, alloc)

let mk_record alloc ~lsn ~txn =
  Record.make alloc ~lsn ~txn ~typ:Record.Update ~addr:(8 * lsn)
    ~old_value:0L ~new_value:(Int64.of_int lsn) ~undo_next:0 ~prev_same_txn:0

let lsns arena log =
  let acc = ref [] in
  Log.iter log (fun r -> acc := Record.lsn arena r :: !acc);
  List.rev !acc

let lsns_back arena log =
  let acc = ref [] in
  Log.iter_back log (fun r -> acc := Record.lsn arena r :: !acc);
  List.rev !acc

let check_list = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Behaviour shared by all variants                                    *)
(* ------------------------------------------------------------------ *)

let test_append_iterate variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 10 do
    append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  check_list "forward order" (List.init 10 (fun i -> i + 1)) (lsns arena log);
  check_list "backward order"
    (List.rev (List.init 10 (fun i -> i + 1)))
    (lsns_back arena log);
  check_int "length" 10 (Log.length log)

let test_remove_where variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 10 do
    append log (mk_record alloc ~lsn:i ~txn:(i mod 2))
  done;
  Log.remove_where log (fun r -> Record.txn arena r = 0);
  check_list "odd lsns remain" [ 1; 3; 5; 7; 9 ] (lsns arena log)

let test_remove_all_then_append variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 9 do
    append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  Log.remove_where log (fun _ -> true);
  check_int "empty" 0 (Log.length log);
  append log (mk_record alloc ~lsn:42 ~txn:1);
  check_list "usable after emptying" [ 42 ] (lsns arena log)

let test_clear_all variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 10 do
    append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  Log.clear_all log;
  check_int "cleared" 0 (Log.length log);
  append log (mk_record alloc ~lsn:5 ~txn:1);
  check_list "fresh log usable" [ 5 ] (lsns arena log)

(* Reattach after a clean crash: everything persistent must reappear and
   the cursor must allow further appends. *)
let test_crash_reattach variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 10 do
    append ~is_end:(i = 10) log (mk_record alloc ~lsn:i ~txn:1)
  done;
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach variant ~bucket_cap:4 alloc ~root_slot:2 in
  check_list "records recovered" (List.init 10 (fun i -> i + 1)) (lsns arena log2);
  append log2 (mk_record alloc ~lsn:11 ~txn:1);
  check_list "append after recovery"
    (List.init 11 (fun i -> i + 1))
    (lsns arena log2)

(* ------------------------------------------------------------------ *)
(* Batch-specific persistence semantics                                *)
(* ------------------------------------------------------------------ *)

(* Records beyond the last group fence are lost by a crash — and recovery
   must not see them. *)
let test_batch_untrusted_tail () =
  let arena, alloc = fresh () in
  let log = Log.create (Log.Batch 8) ~bucket_cap:100 alloc ~root_slot:2 in
  for i = 1 to 11 do
    append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  (* group of 8 persisted; 9..11 pending *)
  check_int "pending" 3 (Log.pending log);
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach (Log.Batch 8) ~bucket_cap:100 alloc ~root_slot:2 in
  check_list "only fenced prefix survives"
    (List.init 8 (fun i -> i + 1))
    (lsns arena log2)

let test_batch_end_forces () =
  let arena, alloc = fresh () in
  let log = Log.create (Log.Batch 8) ~bucket_cap:100 alloc ~root_slot:2 in
  for i = 1 to 3 do
    append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  append ~is_end:true log (mk_record alloc ~lsn:4 ~txn:1);
  check_int "nothing pending after END" 0 (Log.pending log);
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach (Log.Batch 8) ~bucket_cap:100 alloc ~root_slot:2 in
  check_list "all survive thanks to END" [ 1; 2; 3; 4 ] (lsns arena log2)

let test_batch_flush_group () =
  let arena, alloc = fresh () in
  let log = Log.create (Log.Batch 8) ~bucket_cap:100 alloc ~root_slot:2 in
  for i = 1 to 5 do
    append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  Log.flush_group log;
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach (Log.Batch 8) ~bucket_cap:100 alloc ~root_slot:2 in
  check_list "explicit flush persists tail" [ 1; 2; 3; 4; 5 ] (lsns arena log2)

(* A Batch(g) group counts records, not slots: g two-slot pairs fill it,
   and the one flush persists all 2g slots. *)
let test_batch_group_of_pairs g () =
  let arena, alloc = fresh () in
  let log = Log.create (Log.Batch g) ~bucket_cap:100 alloc ~root_slot:2 in
  let s = Arena.stats arena in
  let fences0 = s.Stats.fences and flushes0 = s.Stats.group_flushes in
  let pair lsn =
    ignore
      (Log.append_record log ~lsn ~txn:1 ~typ:Record.Update ~addr:(8 * lsn)
         ~old_value:0L ~new_value:(Int64.of_int lsn) ~undo_next:0)
  in
  for lsn = 1 to g - 1 do
    pair lsn
  done;
  check_int "open group: no fence" fences0 s.Stats.fences;
  check_int "open group: its slots pending" (2 * (g - 1)) (Log.pending log);
  pair g;
  check_int "all pairs inline" g (Log.inline_appended log);
  check_int "one group flush" (flushes0 + 1) s.Stats.group_flushes;
  check_int "one fence" (fences0 + 1) s.Stats.fences;
  check_int "nothing pending" 0 (Log.pending log);
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach (Log.Batch g) ~bucket_cap:100 alloc ~root_slot:2 in
  check_list "the whole group survives" (List.init g (fun i -> i + 1))
    (lsns arena log2)

(* ------------------------------------------------------------------ *)
(* Cost properties                                                     *)
(* ------------------------------------------------------------------ *)

(* The whole point of Batch: one fence per [group] records instead of one
   per record. *)
let test_fence_counts () =
  let count variant =
    let arena, alloc = fresh () in
    let log = Log.create variant ~bucket_cap:1000 alloc ~root_slot:2 in
    let before = (Arena.stats arena).Stats.fences in
    for i = 1 to 64 do
      append log (mk_record alloc ~lsn:i ~txn:1)
    done;
    (Arena.stats arena).Stats.fences - before
  in
  let opt = count Log.Optimized in
  let batch = count (Log.Batch 8) in
  check_int "optimized: one fence per record" 64 opt;
  check_int "batch: one fence per group" 8 batch

let test_batch_cheaper_than_optimized_than_simple () =
  let cost variant =
    let arena, alloc = fresh () in
    let log = Log.create variant ~bucket_cap:1000 alloc ~root_slot:2 in
    Clock.reset ();
    for i = 1 to 256 do
      append log (mk_record alloc ~lsn:i ~txn:1)
    done;
    ignore arena;
    Clock.now ()
  in
  let simple = cost Log.Simple in
  let opt = cost Log.Optimized in
  let batch = cost (Log.Batch 8) in
  check_bool "optimized beats simple" true (opt < simple);
  check_bool "batch beats optimized" true (batch < opt)

(* A payload-free END by fields: an END word on the bucketed variants. *)
let append_end log ~lsn ~txn =
  Log.append_record ~is_end:true log ~lsn ~txn ~typ:Record.End ~addr:0
    ~old_value:0L ~new_value:0L ~undo_next:0

(* One fixed script per variant over every scan, clearing and attach
   path, pinned to the exact NVM counters and simulated time of each
   step: [loads; nvm_writes; nt_stores; flushes; fences; sim ns].  A
   change to how the log walks its buckets must keep every read, store,
   flush, fence and clock charge.  The attach runs over a torn record:
   for the bucketed variants, a durable inline pair whose second word
   keeps its tag but fails the CRC, so the tear must consume it. *)
let cost_script variant =
  let arena, alloc = fresh () in
  let log = ref (Log.create variant ~bucket_cap:8 alloc ~root_slot:2) in
  let costs = ref [] in
  let step name f =
    let t0 = Clock.now () in
    let (), d = Stats.scoped (Arena.stats arena) f in
    costs :=
      ( name,
        Stats.
          [ d.loads; d.nvm_writes; d.nt_stores; d.flushes; d.fences;
            Clock.now () - t0 ] )
      :: !costs
  in
  let small ?is_end ~lsn ~txn typ =
    Log.append_record ?is_end !log ~lsn ~txn ~typ ~addr:(8 * lsn)
      ~old_value:0L ~new_value:(Int64.of_int lsn) ~undo_next:0
  in
  let full =
    Array.init 13 (fun lsn -> mk_record alloc ~lsn ~txn:(1 + (lsn mod 2)))
  in
  step "append" (fun () ->
      for lsn = 1 to 12 do
        if lsn mod 3 = 0 then append ~lsn !log full.(lsn)
        else ignore (small ~lsn ~txn:(1 + (lsn mod 2)) Record.Update)
      done;
      ignore (append_end !log ~lsn:13 ~txn:1));
  step "iter" (fun () -> Log.iter !log ignore);
  step "iter_back" (fun () -> Log.iter_back !log ignore);
  step "remove_where" (fun () ->
      Log.remove_where !log (fun r -> Record.txn arena r = 2));
  step "unlink_below+reclaim" (fun () ->
      Log.reclaim !log (Log.unlink_below !log 8));
  step "compact" (fun () -> Log.compact ~threshold:1.0 !log);
  let h = ref None in
  step "put" (fun () ->
      let r = mk_record alloc ~lsn:20 ~txn:3 in
      h := Some (Log.put !log (Log.full ~lsn:20 r)));
  step "remove_handle" (fun () -> Log.remove_handle !log (Option.get !h));
  step "clear_all" (fun () -> Log.clear_all !log);
  let last = ref (Log.Node 0) in
  step "append again" (fun () ->
      ignore (append_end !log ~lsn:30 ~txn:4);
      last := small ~lsn:31 ~txn:4 Record.Update);
  (* Batch holds the pair in an open group: make it durable first, so
     the tear lies inside the persisted bound. *)
  Log.flush_group !log;
  (match !last with
  | Log.Slot { bucket; slot; _ } ->
      let w1 = bucket + 16 + (8 * slot) in
      Arena.nt_write arena w1 (Int64.logxor (Arena.read arena w1) 8L)
  | Log.Node _ ->
      let r = List.hd (List.rev (Log.records !log)) in
      Arena.nt_write arena r (Int64.add (Arena.read arena r) 1L));
  Arena.fence arena;
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  step "attach" (fun () ->
      log := Log.attach variant ~bucket_cap:8 alloc ~root_slot:2);
  check_int "the torn record was truncated" 1 (Log.torn_truncated !log);
  check_list "only the record before the tear survives" [ 30 ]
    (lsns arena !log);
  List.rev !costs

let expected_costs = function
  | Log.Simple ->
      [
        ("append", [ 27; 77; 105; 9; 52; 16849 ]);
        ("iter", [ 27; 0; 0; 0; 0; 807 ]);
        ("iter_back", [ 27; 0; 0; 0; 0; 807 ]);
        ("remove_where", [ 70; 24; 24; 0; 12; 4870 ]);
        ("unlink_below+reclaim", [ 0; 0; 0; 0; 0; 0 ]);
        ("compact", [ 8; 0; 0; 0; 0; 8 ]);
        ("put", [ 2; 7; 8; 1; 4; 1460 ]);
        ("remove_handle", [ 5; 4; 4; 0; 2; 805 ]);
        ("clear_all", [ 24; 2; 2; 0; 1; 424 ]);
        ("append again", [ 4; 11; 16; 2; 8; 2470 ]);
        ("attach", [ 28; 4; 4; 0; 2; 828 ]);
      ]
  | Log.Optimized ->
      [
        ("append", [ 6; 23; 22; 9; 19; 5373 ]);
        ("iter", [ 29; 0; 0; 0; 0; 381 ]);
        ("iter_back", [ 37; 0; 0; 0; 0; 389 ]);
        ("remove_where", [ 42; 4; 10; 0; 0; 754 ]);
        ("unlink_below+reclaim", [ 12; 4; 4; 0; 2; 812 ]);
        ("compact", [ 52; 9; 13; 3; 9; 2307 ]);
        ("put", [ 0; 2; 1; 1; 1; 408 ]);
        ("remove_handle", [ 1; 0; 1; 0; 0; 1 ]);
        ("clear_all", [ 17; 7; 11; 0; 4; 1467 ]);
        ("append again", [ 0; 2; 0; 2; 2; 503 ]);
        ("attach", [ 15; 1; 2; 0; 0; 165 ]);
      ]
  | Log.Batch _ ->
      [
        ("append", [ 6; 21; 22; 4; 10; 4177 ]);
        ("iter", [ 30; 0; 0; 0; 0; 374 ]);
        ("iter_back", [ 38; 0; 0; 0; 0; 382 ]);
        ("remove_where", [ 43; 4; 10; 0; 0; 747 ]);
        ("unlink_below+reclaim", [ 12; 4; 4; 0; 2; 812 ]);
        ("compact", [ 53; 10; 13; 2; 6; 2160 ]);
        ("put", [ 0; 1; 0; 1; 0; 159 ]);
        ("remove_handle", [ 1; 1; 1; 0; 0; 151 ]);
        ("clear_all", [ 16; 8; 11; 0; 4; 1616 ]);
        ("append again", [ 0; 2; 1; 1; 1; 403 ]);
        ("attach", [ 11; 1; 2; 0; 0; 161 ]);
      ]

let test_cost_pin variant () =
  List.iter2
    (fun (name, want) (name', got) ->
      Alcotest.(check string) "step" name name';
      Alcotest.(check (list int))
        (name ^ ": loads, nvm_writes, nt_stores, flushes, fences, sim ns")
        want got)
    (expected_costs variant) (cost_script variant)

(* ------------------------------------------------------------------ *)
(* Crash-point property                                                *)
(* ------------------------------------------------------------------ *)

(* After a crash at any point, reattachment yields a prefix of the appended
   records (modulo batch groups), iteration works and further appends
   succeed. *)
let prop_crash_prefix variant =
  QCheck.Test.make
    ~name:(Fmt.str "%a: crash leaves a clean prefix" Log.pp_variant variant)
    ~count:150
    QCheck.(int_bound 400)
    (fun crash_after ->
      ignore
        (Harness.crash_once ~after:crash_after
           {
             Harness.setup =
               (fun () ->
                 let arena, alloc = fresh () in
                 let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
                 (arena, alloc, log));
             arenas = (fun (arena, _, _) -> [| arena |]);
             window =
               (fun (_, alloc, log) ->
                 for i = 1 to 30 do
                   append log (mk_record alloc ~lsn:i ~txn:1)
                 done);
             recover =
               (fun _ arena ->
                 let alloc = Alloc.recover arena in
                 let log = Log.attach variant ~bucket_cap:4 alloc ~root_slot:2 in
                 (arena, alloc, log));
             check =
               (fun _ (arena, alloc, log2) ->
                 let ls = lsns arena log2 in
                 let expected_prefix =
                   List.init (List.length ls) (fun i -> i + 1)
                 in
                 if ls <> expected_prefix then Some "not a prefix of the appends"
                 else begin
                   append log2 (mk_record alloc ~lsn:999 ~txn:1);
                   if lsns arena log2 = expected_prefix @ [ 999 ] then None
                   else Some "a post-recovery append is lost"
                 end);
           });
      true)

(* ------------------------------------------------------------------ *)
(* Occupancy-cache and clearing lifecycle                              *)
(* ------------------------------------------------------------------ *)

(* Regression: [clear_all] must de-allocate *everything* the old log
   holds, including Batch records that were appended but whose slot
   group never persisted.  The old code sized its de-allocation scan of
   the current bucket from the durable last-persistent-index word, so
   every pending record leaked on wholesale clearing — which is exactly
   the path recovery takes ([Tm] clears the log after undo). *)
let test_clear_all_frees_pending variant () =
  let _arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:100 alloc ~root_slot:2 in
  let baseline = Alloc.live_bytes alloc in
  for i = 1 to 11 do
    append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  (* under Batch 8, records 9..11 sit in an unpersisted slot group *)
  check_bool "grew" true (Alloc.live_bytes alloc > baseline);
  Log.clear_all log;
  check_int "clear_all freed every record, persisted or pending" baseline
    (Alloc.live_bytes alloc);
  check_int "log empty" 0 (Log.length log)

(* The volatile occupancy cells must stay coherent with the durable
   layout through every clearing path: selective removal, wholesale
   clearing, compaction, and reattachment.  [check_occupancy] recounts
   the durable image and reports mismatches. *)
let occupancy_clean name log =
  match Log.check_occupancy log with
  | [] -> ()
  | ms ->
      Alcotest.failf "%s: occupancy cache diverged: %s" name
        (String.concat "; "
           (List.map
              (fun (b, cached, actual) ->
                Fmt.str "bucket %d cached %d actual %d" b cached actual)
              ms))

let test_occupancy_lifecycle variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 20 do
    append log (mk_record alloc ~lsn:i ~txn:(i mod 3))
  done;
  occupancy_clean "after append" log;
  Log.remove_where log (fun r -> Record.txn arena r = 0);
  occupancy_clean "after remove_where" log;
  Log.remove_where log (fun r -> Record.txn arena r = 1);
  occupancy_clean "after second remove_where" log;
  (* ~7 survivors over buckets sized for 20: force the copy *)
  Log.compact ~threshold:1.0 log;
  occupancy_clean "after compact" log;
  let survivors = lsns arena log in
  check_list "compaction preserved the survivors"
    (List.filter (fun l -> l mod 3 = 2) (List.init 20 (fun i -> i + 1)))
    survivors;
  append log (mk_record alloc ~lsn:100 ~txn:2);
  occupancy_clean "after post-compact append" log;
  (* the rebuilt-from-durable occupancy must agree too *)
  Log.flush_group log;
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach variant ~bucket_cap:4 alloc ~root_slot:2 in
  occupancy_clean "after reattach" log2;
  check_list "records survive the round trip" (survivors @ [ 100 ])
    (lsns arena log2)

(* The log's walkers agree after any sequence of operations: [iter_back]
   yields [iter]'s records in reverse, [occupancy_stats] counts as many
   live slots as [iter] visits (an inline pair fills two, an END word
   one), and the occupancy cache matches a recount of the durable
   layout. *)
let walkers_disagree log =
  let fwd = Log.records log in
  let back = ref [] in
  Log.iter_back log (fun r -> back := r :: !back);
  (* the script appends no END pairs: an inline END is a one-slot word *)
  let width r =
    if Record.is_inline r && Record.typ (Log.arena log) r <> Record.End then 2
    else 1
  in
  let slots = List.fold_left (fun n r -> n + width r) 0 fwd in
  let live, _ = Log.occupancy_stats log in
  if !back <> fwd then Some "iter_back is not iter reversed"
  else if live <> slots then
    Some (Fmt.str "occupancy_stats counts %d live slots, iter %d" live slots)
  else
    match Log.check_occupancy log with
    | [] -> None
    | ms ->
        Some (Fmt.str "occupancy cache diverged (%d buckets)" (List.length ms))

(* Property: a random interleaving of appends (full records and END
   words), selective removals, group flushes and compactions never
   desynchronises the occupancy cache. *)
let prop_occupancy_coherent variant =
  QCheck.Test.make
    ~name:(Fmt.str "%a: occupancy cache coherent" Log.pp_variant variant)
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let arena, alloc = fresh () in
      let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
      let state = ref (seed + 1) in
      let rand bound =
        state := (!state * 1103515245) + 12345;
        (!state lsr 16) mod bound
      in
      let lsn = ref 0 in
      for _ = 1 to 60 do
        match rand 11 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            incr lsn;
            append ~is_end:(rand 4 = 0) log
              (mk_record alloc ~lsn:!lsn ~txn:(rand 3))
        | 10 ->
            incr lsn;
            ignore (append_end log ~lsn:!lsn ~txn:(1 + rand 2))
        | 6 | 7 ->
            let t = rand 3 in
            Log.remove_where log (fun r -> Record.txn arena r = t)
        | 8 -> Log.flush_group log
        | _ -> Log.compact ~threshold:(float_of_int (rand 11) /. 10.) log
      done;
      match walkers_disagree log with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(* ------------------------------------------------------------------ *)
(* Recycled buckets                                                    *)
(* ------------------------------------------------------------------ *)

(* Append one record with LSN [lsn]: a full record when [full], else by
   fields (an END word when [is_end], an inline pair otherwise). *)
let append_kind log alloc ~full ~is_end lsn =
  if full then append ~is_end ~lsn log (mk_record alloc ~lsn ~txn:1)
  else
    ignore
      (Log.append_record ~is_end log ~lsn ~txn:1
         ~typ:(if is_end then Record.End else Record.Update)
         ~addr:(if is_end then 0 else 8 * lsn)
         ~old_value:0L
         ~new_value:(if is_end then 0L else Int64.of_int lsn)
         ~undo_next:0)

(* Once buckets recycle, a bucket's address says nothing of its age:
   [unlink_below] must still hand back the dead buckets in chain order,
   oldest first. *)
let test_unlink_chain_order () =
  let arena, alloc = fresh () in
  let log = Log.create (Log.Batch 4) ~bucket_cap:4 alloc ~root_slot:2 in
  let lsn = ref 0 in
  let fill n =
    for _ = 1 to n do
      incr lsn;
      append ~lsn:!lsn log (mk_record alloc ~lsn:!lsn ~txn:1)
    done
  in
  (* four full buckets, the last one current; the first three die *)
  fill 16;
  Log.reclaim log (Log.unlink_below log (!lsn + 1));
  (* the next three rolls take them back, newest-freed first *)
  fill 16;
  check_int "three buckets recycled" 3
    (Arena.stats arena).Stats.buckets_recycled;
  let chain = Log.buckets log in
  let dead = Log.unlink_below log (!lsn + 1) in
  check_list "chain order, oldest first"
    (List.filter (fun b -> List.mem b dead) chain)
    dead;
  check_int "every bucket but the current one" (List.length chain - 1)
    (List.length dead);
  check_bool "address order would differ" true (dead <> List.sort compare dead)

(* The Optimized trust rule reads every non-zero slot, so its buckets
   always come fresh, durably zero: freed ones are never reused. *)
let test_optimized_never_recycles () =
  let arena, alloc = fresh () in
  let log = Log.create Log.Optimized ~bucket_cap:4 alloc ~root_slot:2 in
  let lsn = ref 0 in
  let fill n =
    for _ = 1 to n do
      incr lsn;
      append ~lsn:!lsn log (mk_record alloc ~lsn:!lsn ~txn:1)
    done
  in
  fill 16;
  let dead = Log.unlink_below log (!lsn + 1) in
  Log.reclaim log dead;
  fill 16;
  check_int "nothing recycled" 0 (Arena.stats arena).Stats.buckets_recycled;
  List.iter
    (fun b ->
      check_bool "a freed bucket is not back in the chain" false
        (List.mem b (Log.buckets log)))
    dead

(* The Batch trust rule on a recycled bucket: its stale slots hold
   CRC-valid END words, inline pairs and addresses of full records that
   are still intact in memory, yet none of them is below the reset
   last-persistent-index, so no reader sees them — not before a crash,
   and not after one that lands before the new generation's first group
   flush. *)
let test_recycled_stale_slots () =
  let arena, alloc = fresh () in
  let log = Log.create (Log.Batch 4) ~bucket_cap:8 alloc ~root_slot:2 in
  let stale = List.hd (Log.buckets log) in
  (* fill the first bucket: pair, END, full, pair, END, full *)
  List.iteri
    (fun i (full, is_end) -> append_kind log alloc ~full ~is_end (i + 1))
    [
      (false, false); (false, true); (true, false); (false, false);
      (false, true); (true, false);
    ];
  (* a second bucket, full and durable, then the first one dies *)
  for lsn = 7 to 14 do
    append_kind log alloc ~full:true ~is_end:(lsn = 14) lsn
  done;
  check_list "the first bucket unlinked" [ stale ] (Log.unlink_below log 7);
  Log.reclaim log [ stale ];
  let held = List.init 8 (fun i -> Arena.durable_read arena (stale + 8 + (8 * i))) in
  (* the next roll recycles it; the new record stays in an open group *)
  append_kind log alloc ~full:false ~is_end:false 15;
  check_int "recycled" 1 (Arena.stats arena).Stats.buckets_recycled;
  check_int "the stale bucket is current again" stale
    (List.hd (List.rev (Log.buckets log)));
  check_bool "its slots 2..7 still hold the old words" true
    (List.filteri (fun i _ -> i >= 2) held
    = List.init 6 (fun i -> Arena.durable_read arena (stale + 24 + (8 * i))));
  check_bool "among them a CRC-valid END word" true
    (List.exists (fun w -> Record.end_word_valid (Int64.to_int w)) held);
  let readers name log ~want ~slots =
    check_list (name ^ ": iter") want (lsns arena log);
    check_list (name ^ ": iter_back") (List.rev want) (lsns_back arena log);
    check_int (name ^ ": live slots") slots (fst (Log.occupancy_stats log));
    occupancy_clean name log
  in
  (* eight full records, then the new pair's two slots *)
  readers "before the crash" log ~want:(List.init 9 (fun i -> i + 7)) ~slots:10;
  Arena.crash arena;
  let log2 =
    Log.attach (Log.Batch 4) ~bucket_cap:8 (Alloc.recover arena) ~root_slot:2
  in
  check_int "nothing torn" 0 (Log.torn_truncated log2);
  readers "after attach" log2 ~want:(List.init 8 (fun i -> i + 7)) ~slots:8

(* The unlink rule: over a random interleaving of appends (with an LSN,
   without one, full, inline pair or END word), [unlink_below], [remove_where],
   [compact], [clear_all] and crash-and-[attach], [unlink_below h] never
   takes the current bucket, a bucket that existed right after an
   [attach] or a [compact], a bucket that took an append without an LSN,
   or one that took an LSN at or above [h]; it returns its buckets in
   chain order; the records it removes all lie below [h]; and the
   occupancy cache stays coherent. *)
let prop_unlink_rule variant =
  QCheck.Test.make
    ~name:(Fmt.str "%a: unlink_below takes only dead buckets" Log.pp_variant
             variant)
    ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let arena, alloc0 = fresh () in
      let alloc = ref alloc0 in
      let log = ref (Log.create variant ~bucket_cap:4 !alloc ~root_slot:2) in
      let state = ref (seed + 1) in
      let rand bound =
        state := (!state * 1103515245) + 12345;
        (!state lsr 16) mod bound
      in
      (* buckets never to be unlinked, and each bucket's largest LSN *)
      let kept = Hashtbl.create 16 and max_lsn = Hashtbl.create 16 in
      let keep_all () =
        List.iter (fun b -> Hashtbl.replace kept b ()) (Log.buckets !log)
      in
      let note b lsn =
        let m = Option.value ~default:min_int (Hashtbl.find_opt max_lsn b) in
        Hashtbl.replace max_lsn b (max m lsn)
      in
      (* A freed bucket's address may come back as a new Batch bucket:
         forget what was noted about buckets no longer in the chain. *)
      let forget_freed () =
        let chain = Log.buckets !log in
        let still tbl =
          Hashtbl.filter_map_inplace
            (fun b v -> if List.mem b chain then Some v else None)
            tbl
        in
        still kept;
        still max_lsn
      in
      let lsn = ref 0 in
      let failure = ref None in
      let fail fmt =
        Fmt.kstr (fun m -> if !failure = None then failure := Some m) fmt
      in
      for _ = 1 to 80 do
        forget_freed ();
        match rand 17 with
        | 0 | 1 | 2 | 3 | 4 | 5 -> (
            incr lsn;
            let r = mk_record !alloc ~lsn:!lsn ~txn:(1 + rand 3) in
            match Log.put ~is_end:(rand 4 = 0) !log (Log.full ~lsn:!lsn r) with
            | Log.Slot { bucket; _ } -> note bucket !lsn
            | Log.Node _ -> ())
        | 6 -> (
            incr lsn;
            match
              Log.append_record !log ~lsn:!lsn ~txn:(1 + rand 3)
                ~typ:Record.Update ~addr:(8 * !lsn) ~old_value:0L
                ~new_value:1L ~undo_next:0
            with
            | Log.Slot { bucket; _ } -> note bucket !lsn
            | Log.Node _ -> ())
        | 7 -> (
            (* no LSN: the bucket becomes unknown *)
            incr lsn;
            let r = mk_record !alloc ~lsn:!lsn ~txn:1 in
            match Log.put !log (Log.full r) with
            | Log.Slot { bucket; _ } -> note bucket max_int
            | Log.Node _ -> ())
        | 8 | 9 | 10 ->
            let h = rand (!lsn + 2) in
            let cur = List.rev (Log.buckets !log) in
            let before = lsns arena !log in
            let chain = Log.buckets !log in
            let dead = Log.unlink_below !log h in
            if List.filter (fun b -> List.mem b dead) chain <> dead then
              fail "unlinked out of chain order";
            (match cur with
            | c :: _ when List.mem c dead -> fail "took the current bucket"
            | _ -> ());
            List.iter
              (fun b ->
                if Hashtbl.mem kept b then
                  fail "took bucket %d from an attach or a compact" b;
                match Hashtbl.find_opt max_lsn b with
                | Some m when m < h -> ()
                | _ -> fail "took bucket %d holding an LSN at or above %d" b h)
              dead;
            let after = lsns arena !log in
            List.iter
              (fun l ->
                if l >= h && not (List.mem l after) then
                  fail "removed record %d at or above %d" l h)
              before;
            Log.reclaim !log dead
        | 11 ->
            let t = 1 + rand 3 in
            Log.remove_where !log (fun r -> Record.txn arena r = t)
        | 12 ->
            let before = Log.buckets !log in
            Log.compact ~threshold:(float_of_int (rand 11) /. 10.) !log;
            (* a compaction that ran rebuilt every bucket afresh *)
            if Log.buckets !log <> before then keep_all ()
        | 13 -> Log.clear_all !log
        | 14 ->
            Log.flush_group !log;
            Arena.crash arena;
            alloc := Alloc.recover arena;
            log := Log.attach variant ~bucket_cap:4 !alloc ~root_slot:2;
            keep_all ()
        | 15 -> (
            incr lsn;
            match append_end !log ~lsn:!lsn ~txn:(1 + rand 3) with
            | Log.Slot { bucket; _ } -> note bucket !lsn
            | Log.Node _ -> ())
        | _ -> Log.flush_group !log
      done;
      Option.iter (fail "%s") (walkers_disagree !log);
      match !failure with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

let () =
  let tc = Alcotest.test_case in
  let per_variant name f =
    List.map (fun (vn, v) -> tc (name ^ " (" ^ vn ^ ")") `Quick (f v)) variants
  in
  Alcotest.run "log"
    [
      ("append-iterate", per_variant "append/iterate" test_append_iterate);
      ("remove", per_variant "remove_where" test_remove_where);
      ("empty-refill", per_variant "remove all then append" test_remove_all_then_append);
      ("clear-all", per_variant "clear_all" test_clear_all);
      ( "occupancy-cache",
        per_variant "clear_all frees pending" test_clear_all_frees_pending
        @ per_variant "lifecycle coherence" test_occupancy_lifecycle
        @ List.map
            (fun (_, v) -> QCheck_alcotest.to_alcotest (prop_occupancy_coherent v))
            variants );
      ( "unlink",
        List.map
          (fun (_, v) -> QCheck_alcotest.to_alcotest (prop_unlink_rule v))
          variants );
      ("crash-reattach", per_variant "crash reattach" test_crash_reattach);
      ( "recycle",
        [
          tc "unlink in chain order" `Quick test_unlink_chain_order;
          tc "Optimized never recycles" `Quick test_optimized_never_recycles;
          tc "stale slots untrusted" `Quick test_recycled_stale_slots;
        ] );
      ( "batch-semantics",
        [
          tc "untrusted tail dropped" `Quick test_batch_untrusted_tail;
          tc "END forces persistence" `Quick test_batch_end_forces;
          tc "flush_group persists tail" `Quick test_batch_flush_group;
          tc "a group of 4 pairs flushes once" `Quick
            (test_batch_group_of_pairs 4);
          tc "a group of 8 pairs flushes once" `Quick
            (test_batch_group_of_pairs 8);
        ] );
      ( "costs",
        [
          tc "fence counts" `Quick test_fence_counts;
          tc "variant ordering" `Quick test_batch_cheaper_than_optimized_than_simple;
        ]
        @ List.map
            (fun v ->
              tc (Fmt.str "cost pin (%a)" Log.pp_variant v) `Quick
                (test_cost_pin v))
            [ Log.Simple; Log.Optimized; Log.Batch 4 ] );
      ( "properties",
        List.map
          (fun (_, v) -> QCheck_alcotest.to_alcotest (prop_crash_prefix v))
          variants );
    ]
