(* Tests for the three log implementations (Simple / Optimized / Batch):
   append/iterate/remove behaviour, batch persistence semantics, cost
   properties, and post-crash reattachment. *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness

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
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Behaviour shared by all variants                                    *)
(* ------------------------------------------------------------------ *)

let test_append_iterate variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 10 do
    Log.append log (mk_record alloc ~lsn:i ~txn:1)
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
    Log.append log (mk_record alloc ~lsn:i ~txn:(i mod 2))
  done;
  Log.remove_where log (fun r -> Record.txn arena r = 0);
  check_list "odd lsns remain" [ 1; 3; 5; 7; 9 ] (lsns arena log)

let test_remove_all_then_append variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 9 do
    Log.append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  Log.remove_where log (fun _ -> true);
  check_int "empty" 0 (Log.length log);
  Log.append log (mk_record alloc ~lsn:42 ~txn:1);
  check_list "usable after emptying" [ 42 ] (lsns arena log)

let test_clear_all variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 10 do
    Log.append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  Log.clear_all log;
  check_int "cleared" 0 (Log.length log);
  Log.append log (mk_record alloc ~lsn:5 ~txn:1);
  check_list "fresh log usable" [ 5 ] (lsns arena log)

(* Reattach after a clean crash: everything persistent must reappear and
   the cursor must allow further appends. *)
let test_crash_reattach variant () =
  let arena, alloc = fresh () in
  let log = Log.create variant ~bucket_cap:4 alloc ~root_slot:2 in
  for i = 1 to 10 do
    Log.append ~is_end:(i = 10) log (mk_record alloc ~lsn:i ~txn:1)
  done;
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach variant ~bucket_cap:4 alloc ~root_slot:2 in
  check_list "records recovered" (List.init 10 (fun i -> i + 1)) (lsns arena log2);
  Log.append log2 (mk_record alloc ~lsn:11 ~txn:1);
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
    Log.append log (mk_record alloc ~lsn:i ~txn:1)
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
    Log.append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  Log.append ~is_end:true log (mk_record alloc ~lsn:4 ~txn:1);
  check_int "nothing pending after END" 0 (Log.pending log);
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach (Log.Batch 8) ~bucket_cap:100 alloc ~root_slot:2 in
  check_list "all survive thanks to END" [ 1; 2; 3; 4 ] (lsns arena log2)

let test_batch_flush_group () =
  let arena, alloc = fresh () in
  let log = Log.create (Log.Batch 8) ~bucket_cap:100 alloc ~root_slot:2 in
  for i = 1 to 5 do
    Log.append log (mk_record alloc ~lsn:i ~txn:1)
  done;
  Log.flush_group log;
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach (Log.Batch 8) ~bucket_cap:100 alloc ~root_slot:2 in
  check_list "explicit flush persists tail" [ 1; 2; 3; 4; 5 ] (lsns arena log2)

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
      Log.append log (mk_record alloc ~lsn:i ~txn:1)
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
      Log.append log (mk_record alloc ~lsn:i ~txn:1)
    done;
    ignore arena;
    Clock.now ()
  in
  let simple = cost Log.Simple in
  let opt = cost Log.Optimized in
  let batch = cost (Log.Batch 8) in
  check_bool "optimized beats simple" true (opt < simple);
  check_bool "batch beats optimized" true (batch < opt)

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
                   Log.append log (mk_record alloc ~lsn:i ~txn:1)
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
                   Log.append log2 (mk_record alloc ~lsn:999 ~txn:1);
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
    Log.append log (mk_record alloc ~lsn:i ~txn:1)
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
    Log.append log (mk_record alloc ~lsn:i ~txn:(i mod 3))
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
  Log.append log (mk_record alloc ~lsn:100 ~txn:2);
  occupancy_clean "after post-compact append" log;
  (* the rebuilt-from-durable occupancy must agree too *)
  Log.flush_group log;
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let log2 = Log.attach variant ~bucket_cap:4 alloc ~root_slot:2 in
  occupancy_clean "after reattach" log2;
  check_list "records survive the round trip" (survivors @ [ 100 ])
    (lsns arena log2)

(* Property: a random interleaving of appends, selective removals, group
   flushes and compactions never desynchronises the occupancy cache. *)
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
        match rand 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            incr lsn;
            Log.append ~is_end:(rand 4 = 0) log
              (mk_record alloc ~lsn:!lsn ~txn:(rand 3))
        | 6 | 7 ->
            let t = rand 3 in
            Log.remove_where log (fun r -> Record.txn arena r = t)
        | 8 -> Log.flush_group log
        | _ -> Log.compact ~threshold:(float_of_int (rand 11) /. 10.) log
      done;
      Log.check_occupancy log = [])

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
      ("crash-reattach", per_variant "crash reattach" test_crash_reattach);
      ( "batch-semantics",
        [
          tc "untrusted tail dropped" `Quick test_batch_untrusted_tail;
          tc "END forces persistence" `Quick test_batch_end_forces;
          tc "flush_group persists tail" `Quick test_batch_flush_group;
        ] );
      ( "costs",
        [
          tc "fence counts" `Quick test_fence_counts;
          tc "variant ordering" `Quick test_batch_cheaper_than_optimized_than_simple;
        ] );
      ( "properties",
        List.map
          (fun (_, v) -> QCheck_alcotest.to_alcotest (prop_crash_prefix v))
          variants );
    ]
