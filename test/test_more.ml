(* Tests for the later additions: B+-tree range scans, the persistent
   queue, and the TPC-C payment transaction. *)

open Rewind_nvm
open Rewind
module Harness = Rewind_analysis.Crash_harness
open Rewind_pds
open Support

let check_i64o = Alcotest.(check (option int64))

(* ------------------------------------------------------------------ *)
(* B+-tree range scans                                                 *)
(* ------------------------------------------------------------------ *)

let test_range_basic () =
  let _, alloc, tm = fresh ~size_bytes:(64 lsl 20) () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      for k = 1 to 100 do
        Btree.insert bt txn (Int64.of_int (k * 2)) (Int64.of_int k)
      done);
  Alcotest.(check (list (pair int64 int64)))
    "inclusive range"
    [ (10L, 5L); (12L, 6L); (14L, 7L) ]
    (Btree.range bt ~lo:10L ~hi:14L);
  Alcotest.(check (list (pair int64 int64)))
    "range between keys"
    [ (10L, 5L); (12L, 6L) ]
    (Btree.range bt ~lo:9L ~hi:13L)

let test_range_edges () =
  let _, alloc, tm = fresh ~size_bytes:(64 lsl 20) () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      List.iter
        (fun k -> Btree.insert bt txn (Int64.of_int k) 0L)
        [ 5; 10; 15 ]);
  check_int "empty below" 0 (List.length (Btree.range bt ~lo:1L ~hi:4L));
  check_int "empty above" 0 (List.length (Btree.range bt ~lo:16L ~hi:99L));
  check_int "whole tree" 3 (List.length (Btree.range bt ~lo:Int64.min_int ~hi:Int64.max_int));
  check_int "single key" 1 (List.length (Btree.range bt ~lo:10L ~hi:10L))

let test_range_spans_leaves () =
  let _, alloc, tm = fresh ~size_bytes:(64 lsl 20) () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      for k = 1 to 500 do
        Btree.insert bt txn (Int64.of_int k) (Int64.of_int k)
      done);
  let r = Btree.range bt ~lo:100L ~hi:300L in
  check_int "201 keys" 201 (List.length r);
  check_bool "sorted" true
    (List.map fst r = List.sort compare (List.map fst r))

(* ------------------------------------------------------------------ *)
(* B+-tree bulk loading                                                *)
(* ------------------------------------------------------------------ *)

let test_bulk_load_equals_inserts () =
  let _, alloc, tm = fresh ~size_bytes:(64 lsl 20) () in
  let bindings = List.init 500 (fun i -> (Int64.of_int (i * 7), Int64.of_int i)) in
  let bulk = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn -> Btree.bulk_load bulk txn bindings);
  let incr_ = Btree.create (Btree.Logged tm) alloc in
  Tm.atomically tm (fun txn ->
      List.iter (fun (k, v) -> Btree.insert incr_ txn k v) bindings);
  Alcotest.(check (list (pair int64 int64)))
    "same contents" (Btree.bindings incr_) (Btree.bindings bulk);
  check_bool "well formed" true (Btree.well_formed bulk);
  (* and it stays fully operational *)
  Tm.atomically tm (fun txn ->
      Btree.insert bulk txn 1L 1L;
      ignore (Btree.delete bulk txn 7L));
  check_bool "well formed after ops" true (Btree.well_formed bulk)

let test_bulk_load_rejects_unsorted () =
  let _, alloc, tm = fresh ~size_bytes:(64 lsl 20) () in
  let bt = Btree.create (Btree.Logged tm) alloc in
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Btree.bulk_load: bindings not sorted") (fun () ->
      Tm.atomically tm (fun txn -> Btree.bulk_load bt txn [ (2L, 0L); (1L, 0L) ]))

let test_bulk_load_atomic_across_crash () =
  (* crash at every third point: afterwards the tree is either empty or
     complete *)
  let bindings = List.init 60 (fun i -> (Int64.of_int i, Int64.of_int i)) in
  ignore
    (Harness.every_event ~stride:(fun _ -> 3)
       {
         Harness.setup =
           (fun () ->
             let arena, alloc, tm = fresh ~size_bytes:(64 lsl 20) () in
             (arena, tm, Btree.create (Btree.Logged tm) alloc));
         arenas = (fun (arena, _, _) -> [| arena |]);
         window =
           (fun (_, tm, bt) ->
             Tm.atomically tm (fun txn -> Btree.bulk_load bt txn bindings));
         recover =
           (fun (_, _, bt) arena ->
             let alloc2 = Alloc.recover arena in
             let tm2 = Tm.attach ~cfg:Rewind.config_1l_nfp alloc2 ~root_slot in
             Btree.attach (Btree.Logged tm2) alloc2
               ~root_cell:(Btree.root_cell bt));
         check =
           (fun _ bt2 ->
             let n = Btree.size bt2 in
             if n <> 0 && n <> 60 then Some (Fmt.str "partial load (%d)" n)
             else if not (Btree.well_formed bt2) then Some "tree not well formed"
             else None);
       })

(* ------------------------------------------------------------------ *)
(* Soak: long random workload with periodic crashes                    *)
(* ------------------------------------------------------------------ *)

let test_soak () =
  let cfg = { Rewind.config_1l_nfp with variant = Log.Batch 8 } in
  let arena = Arena.create ~size_bytes:(256 lsl 20) () in
  let alloc = ref (Alloc.create arena) in
  let tm = ref (Tm.create ~cfg !alloc ~root_slot) in
  let bt = Btree.create (Btree.Logged !tm) !alloc in
  let root_cell = Btree.root_cell bt in
  let bt = ref bt in
  let model = Hashtbl.create 256 in
  let shadow = Hashtbl.create 256 in  (* current txn's writes *)
  let rng = Rewind_tpcc.Rng.create 2024 in
  for round = 1 to 12 do
    (* a burst of transactions *)
    for _ = 1 to 30 do
      Hashtbl.reset shadow;
      let commit_it = Rewind_tpcc.Rng.int rng 1 10 > 2 in
      let txn = Tm.begin_txn !tm in
      (try
         for _ = 1 to Rewind_tpcc.Rng.int rng 1 8 do
           let k = Int64.of_int (Rewind_tpcc.Rng.int rng 1 200) in
           if Rewind_tpcc.Rng.int rng 1 3 = 1 then begin
             ignore (Btree.delete !bt txn k);
             Hashtbl.replace shadow k None
           end
           else begin
             let v = Rewind_tpcc.Rng.next rng in
             Btree.insert !bt txn k v;
             Hashtbl.replace shadow k (Some v)
           end
         done;
         if commit_it then begin
           Tm.commit !tm txn;
           Hashtbl.iter
             (fun k v ->
               match v with
               | Some v -> Hashtbl.replace model k v
               | None -> Hashtbl.remove model k)
             shadow
         end
         else Tm.rollback !tm txn
       with Arena.Crash -> ());
      if Arena.crashed arena then raise Arena.Crash
    done;
    (* periodically checkpoint, crash, or both *)
    (match round mod 3 with
    | 0 -> Tm.checkpoint !tm
    | 1 -> ()
    | _ ->
        Arena.crash arena;
        Arena.clear_crashed arena;
        alloc := Alloc.recover arena;
        tm := Tm.attach ~cfg !alloc ~root_slot;
        bt := Btree.attach (Btree.Logged !tm) !alloc ~root_cell);
    (* full model comparison *)
    check_bool
      (Fmt.str "round %d: well formed" round)
      true
      (Btree.well_formed !bt);
    Alcotest.(check int)
      (Fmt.str "round %d: size" round)
      (Hashtbl.length model) (Btree.size !bt);
    Hashtbl.iter
      (fun k v ->
        if Btree.lookup !bt k <> Some v then
          Alcotest.failf "round %d: key %Ld diverged" round k)
      model
  done

(* ------------------------------------------------------------------ *)
(* Persistent queue                                                    *)
(* ------------------------------------------------------------------ *)

let test_pqueue_fifo () =
  let _, alloc, tm = fresh ~size_bytes:(64 lsl 20) () in
  let q = Pqueue.create tm alloc in
  Tm.atomically tm (fun txn ->
      List.iter (fun v -> Pqueue.enqueue q txn v) [ 1L; 2L; 3L ]);
  check_i64o "peek" (Some 1L) (Pqueue.peek q);
  Tm.atomically tm (fun txn ->
      check_i64o "deq 1" (Some 1L) (Pqueue.dequeue q txn);
      check_i64o "deq 2" (Some 2L) (Pqueue.dequeue q txn));
  Alcotest.(check (list int64)) "remaining" [ 3L ] (Pqueue.to_list q);
  Tm.atomically tm (fun txn ->
      check_i64o "deq 3" (Some 3L) (Pqueue.dequeue q txn);
      check_i64o "deq empty" None (Pqueue.dequeue q txn));
  check_bool "empty" true (Pqueue.is_empty q);
  check_bool "well formed" true (Pqueue.well_formed q);
  (* refill after emptying *)
  Tm.atomically tm (fun txn -> Pqueue.enqueue q txn 9L);
  check_i64o "usable again" (Some 9L) (Pqueue.peek q)

let test_pqueue_rollback () =
  let _, alloc, tm = fresh ~size_bytes:(64 lsl 20) () in
  let q = Pqueue.create tm alloc in
  Tm.atomically tm (fun txn -> Pqueue.enqueue q txn 1L);
  let txn = Tm.begin_txn tm in
  ignore (Pqueue.dequeue q txn);
  Pqueue.enqueue q txn 2L;
  Tm.rollback tm txn;
  Alcotest.(check (list int64)) "restored" [ 1L ] (Pqueue.to_list q);
  check_bool "well formed" true (Pqueue.well_formed q)

let test_pqueue_crash () =
  let cfg = Rewind.config_1l_nfp in
  let arena, alloc, tm = fresh ~size_bytes:(64 lsl 20) ~cfg () in
  let q = Pqueue.create tm alloc in
  Tm.atomically tm (fun txn ->
      List.iter (fun v -> Pqueue.enqueue q txn v) [ 10L; 20L; 30L ]);
  Tm.atomically tm (fun txn -> ignore (Pqueue.dequeue q txn));
  (* in-flight enqueue lost to the crash *)
  let txn = Tm.begin_txn tm in
  Pqueue.enqueue q txn 40L;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let tm2 = Tm.attach ~cfg alloc2 ~root_slot in
  let q2 =
    Pqueue.attach tm2 alloc2 ~head_cell:(Pqueue.head_cell q)
      ~tail_cell:(Pqueue.tail_cell q)
  in
  Alcotest.(check (list int64)) "committed state" [ 20L; 30L ] (Pqueue.to_list q2);
  check_bool "well formed" true (Pqueue.well_formed q2)

let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue matches model" ~count:100
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      let _, alloc, tm = fresh ~size_bytes:(64 lsl 20) () in
      let q = Pqueue.create tm alloc in
      let model = Queue.create () in
      Tm.atomically tm (fun txn ->
          List.iter
            (function
              | Some v ->
                  Pqueue.enqueue q txn (Int64.of_int v);
                  Queue.add (Int64.of_int v) model
              | None ->
                  let got = Pqueue.dequeue q txn in
                  let want = Queue.take_opt model in
                  if got <> want then failwith "mismatch")
            ops);
      Pqueue.to_list q = List.of_seq (Queue.to_seq model)
      && Pqueue.well_formed q)

(* ------------------------------------------------------------------ *)
(* TPC-C payment                                                       *)
(* ------------------------------------------------------------------ *)

let tpcc_db () =
  let arena = Arena.create ~size_bytes:(128 lsl 20) () in
  let alloc = Alloc.create arena in
  let db =
    Rewind_tpcc.Schema.create ~layout:Rewind_tpcc.Schema.Naive
      Rewind_pds.Btree.Direct_nvm alloc
  in
  Rewind_tpcc.Datagen.load ~params:Rewind_tpcc.Datagen.small db 0;
  let tm = Tm.create ~cfg:Rewind.config_1l_nfp alloc ~root_slot:3 in
  let db = Rewind_tpcc.Schema.rebind db (Rewind_pds.Btree.Logged tm) in
  (arena, tm, db)

let test_payment_effects () =
  let open Rewind_tpcc in
  let _, tm, db = tpcc_db () in
  let rq = { Payment.p_warehouse = 1; p_district = 1; p_customer = 1; p_amount = 1000 } in
  Payment.run_transactional db tm rq;
  Payment.run_transactional db tm rq;
  let drow = Schema.district_row db 1 1 in
  Alcotest.(check int64) "d_ytd" 2000L (Schema.row_get db drow Schema.d_ytd);
  let crow =
    Int64.to_int
      (Option.get
         (Btree.lookup (Schema.customer_tree db 1) (Schema.key_customer db 1 1 1)))
  in
  Alcotest.(check int64) "balance" (-2000L) (Schema.row_get db crow Schema.c_balance);
  Alcotest.(check int64) "payment count" 2L
    (Schema.row_get db crow Schema.c_payment_cnt);
  check_bool "history consistent" true (Payment.check_consistency db)

let test_payment_crash_consistency () =
  let open Rewind_tpcc in
  (* crash mid-payment, at an arbitrary later persistence event *)
  ignore
    (Harness.crash_once ~after:500
       {
         Harness.setup =
           (fun () ->
             let arena, tm, db = tpcc_db () in
             let rng = Rng.create 17 in
             for _ = 1 to 20 do
               Payment.run_transactional db tm (Payment.gen_request rng)
             done;
             (arena, tm, db, rng));
         arenas = (fun (arena, _, _, _) -> [| arena |]);
         window =
           (fun (_, tm, db, rng) ->
             for _ = 1 to 50 do
               Payment.run_transactional db tm (Payment.gen_request rng)
             done);
         recover =
           (fun _ arena ->
             ignore
               (Tm.attach ~cfg:Rewind.config_1l_nfp (Alloc.recover arena)
                  ~root_slot:3));
         check =
           (fun (_, _, db, _) () ->
             if Payment.check_consistency db then None
             else Some "d_ytd differs from the history sum after recovery");
       })

let test_payment_and_neworder_mix () =
  let open Rewind_tpcc in
  let _, tm, db = tpcc_db () in
  let rng = Rng.create 23 in
  for i = 1 to 40 do
    if i mod 2 = 0 then
      ignore (Neworder.run_transactional db tm (Neworder.gen_request rng ~items:Datagen.small.Datagen.items))
    else Payment.run_transactional db tm (Payment.gen_request rng)
  done;
  check_bool "order-side consistent" true (Workload.check_consistency db);
  check_bool "payment-side consistent" true (Payment.check_consistency db)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "more"
    [
      ( "btree-range",
        [
          tc "basic" `Quick test_range_basic;
          tc "edges" `Quick test_range_edges;
          tc "spans leaves" `Quick test_range_spans_leaves;
        ] );
      ( "bulk-load",
        [
          tc "equals incremental inserts" `Quick test_bulk_load_equals_inserts;
          tc "rejects unsorted" `Quick test_bulk_load_rejects_unsorted;
          tc "atomic across crash" `Slow test_bulk_load_atomic_across_crash;
        ] );
      ("soak", [ tc "random workload with crashes" `Slow test_soak ]);
      ( "pqueue",
        [
          tc "fifo" `Quick test_pqueue_fifo;
          tc "rollback" `Quick test_pqueue_rollback;
          tc "crash" `Quick test_pqueue_crash;
          QCheck_alcotest.to_alcotest prop_pqueue_model;
        ] );
      ( "payment",
        [
          tc "effects" `Quick test_payment_effects;
          tc "crash consistency" `Quick test_payment_crash_consistency;
          tc "mix with new-order" `Quick test_payment_and_neworder_mix;
        ] );
    ]
