(* TPC-C substrate tests: deterministic generation, new-order semantics in
   both layouts, abort/rollback behaviour, crash recovery of the database,
   consistency probes, workload smoke tests — and the five-transaction
   mix: order-status / delivery (deferred) / stock-level semantics,
   multi-warehouse loading, the mixed closed-loop driver, and a
   crash-at-every-persistence-event sweep over a mixed workload
   (including mid-delivery) at 1 and 4 log partitions. *)

open Rewind_nvm
open Rewind_tpcc
module Harness = Rewind_analysis.Crash_harness
open Support

let small = Datagen.small

let mk ?(layout = Schema.Naive) ?(warehouses = 1) ?(params = small) () =
  let arena = Arena.create ~size_bytes:(256 lsl 20) () in
  let alloc = Alloc.create arena in
  let db = Schema.create ~layout ~warehouses Rewind_pds.Btree.Direct_nvm alloc in
  Datagen.load ~params db 0;
  (arena, alloc, db)

let with_tm arena alloc db =
  let tm = Rewind.Tm.create ~cfg:Rewind.config_1l_nfp alloc ~root_slot:3 in
  ignore arena;
  ignore alloc;
  (tm, Schema.rebind db (Rewind_pds.Btree.Logged tm))

(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.next a = Rng.next b)
  done;
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 5 15 in
    check_bool "in range" true (v >= 5 && v <= 15)
  done

let test_datagen_loads () =
  let _, _, db = mk () in
  check_int "items" small.Datagen.items (Rewind_pds.Btree.size db.Schema.item);
  check_int "stock" small.Datagen.items
    (Rewind_pds.Btree.size (Schema.stock_tree db 1));
  check_int "customers"
    (Schema.districts * small.Datagen.customers_per_district)
    (Rewind_pds.Btree.size (Schema.customer_tree db 1));
  for d = 1 to Schema.districts do
    check_bool "district row" true (Schema.district_row db 1 d <> 0)
  done

let test_datagen_multi_warehouse () =
  let params =
    { Datagen.items = 20; customers_per_district = 5; initial_orders = 3;
      undelivered = 2 }
  in
  List.iter
    (fun layout ->
      let _, _, db = mk ~layout ~warehouses:2 ~params () in
      for w = 1 to 2 do
        for d = 1 to Schema.districts do
          check_bool "district row" true (Schema.district_row db w d <> 0);
          (* 3 initial orders, the newest 2 undelivered *)
          for o = 1 to params.Datagen.initial_orders do
            let orow =
              match
                Rewind_pds.Btree.lookup (Schema.order_tree db w d)
                  (Schema.key_order db w d o)
              with
              | Some v -> Int64.to_int v
              | None -> Alcotest.failf "w%d d%d: initial order %d missing" w d o
            in
            let delivered = Schema.row_get db orow Schema.o_carrier_id <> 0L in
            let queued =
              Rewind_pds.Btree.mem
                (Schema.new_order_tree db w d)
                (Schema.key_order db w d o)
            in
            check_bool
              (Fmt.str "w%d d%d o%d: delivered iff not queued" w d o)
              delivered (not queued);
            check_bool
              (Fmt.str "w%d d%d o%d: oldest delivered" w d o)
              (o = 1) delivered
          done
        done
      done;
      check_bool "delivery invariant over the initial population" true
        (Workload.check_delivery_consistency db))
    [ Schema.Naive; Schema.Optimized ]

let test_request_shape () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let rq = Neworder.gen_request rng ~items:small.Datagen.items in
    check_bool "district" true (rq.Neworder.rq_district >= 1 && rq.Neworder.rq_district <= 10);
    let n = List.length rq.Neworder.rq_lines in
    check_bool "5-15 lines" true (n >= 5 && n <= 15);
    List.iter
      (fun l ->
        check_bool "item in range" true
          (l.Neworder.li_item >= 1 && l.Neworder.li_item <= small.Datagen.items))
      rq.Neworder.rq_lines
  done

let test_abort_rate () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let aborts = ref 0 in
  for _ = 1 to n do
    let rq = Neworder.gen_request rng ~items:small.Datagen.items in
    if rq.Neworder.rq_invalid then incr aborts
  done;
  let rate = float_of_int !aborts /. float_of_int n in
  check_bool "~1% aborts" true (rate > 0.005 && rate < 0.02)

let test_mix_weights () =
  let rng = Rng.create 5 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let slot =
      match Mix.gen rng ~items:small.Datagen.items with
      | Mix.New_order _ -> 0
      | Mix.Payment _ -> 1
      | Mix.Order_status _ -> 2
      | Mix.Delivery _ -> 3
      | Mix.Stock_level _ -> 4
    in
    counts.(slot) <- counts.(slot) + 1
  done;
  let pct i = 100. *. float_of_int counts.(i) /. float_of_int n in
  check_bool "new-order ~45%" true (pct 0 > 42. && pct 0 < 48.);
  check_bool "payment ~43%" true (pct 1 > 40. && pct 1 < 46.);
  check_bool "order-status ~4%" true (pct 2 > 2.5 && pct 2 < 5.5);
  check_bool "delivery ~4%" true (pct 3 > 2.5 && pct 3 < 5.5);
  check_bool "stock-level ~4%" true (pct 4 > 2.5 && pct 4 < 5.5)

let run_fixed db tm_opt ~district ~invalid =
  let rq =
    {
      Neworder.rq_warehouse = 1;
      rq_district = district;
      rq_customer = 1;
      rq_lines = [ { Neworder.li_item = 1; li_qty = 3 }; { li_item = 2; li_qty = 1 } ];
      rq_invalid = invalid;
    }
  in
  match tm_opt with
  | Some tm -> Neworder.run_transactional db tm rq
  | None -> Neworder.run_raw db rq

let stock_row db i =
  Int64.to_int
    (Option.get (Rewind_pds.Btree.lookup (Schema.stock_tree db 1) (Schema.key_stock db 1 i)))

let test_neworder_effects layout () =
  let arena, alloc, db0 = mk ~layout () in
  let tm, db = with_tm arena alloc db0 in
  let drow = Schema.district_row db 1 1 in
  let stock1 = Int64.to_int (Schema.row_get db (stock_row db 1) Schema.s_quantity) in
  let outcome = run_fixed db (Some tm) ~district:1 ~invalid:false in
  check_bool "committed" true (outcome = Neworder.Committed);
  check_int "next_o_id advanced" 2
    (Int64.to_int (Schema.row_get db drow Schema.d_next_o_id));
  check_bool "order row present" true
    (Rewind_pds.Btree.lookup (Schema.order_tree db 1 1) (Schema.key_order db 1 1 1) <> None);
  check_bool "order lines present" true
    (Rewind_pds.Btree.lookup (Schema.order_line_tree db 1 1)
       (Schema.key_order_line db 1 1 1 1)
    <> None);
  let q = Int64.to_int (Schema.row_get db (stock_row db 1) Schema.s_quantity) in
  check_bool "stock decremented (mod refill)" true (q <> stock1);
  check_bool "consistent" true (Workload.check_consistency db)

let test_abort_rolls_back layout () =
  let arena, alloc, db0 = mk ~layout () in
  let tm, db = with_tm arena alloc db0 in
  ignore (run_fixed db (Some tm) ~district:2 ~invalid:false);
  let drow = Schema.district_row db 1 2 in
  let before_noid = Schema.row_get db drow Schema.d_next_o_id in
  let outcome = run_fixed db (Some tm) ~district:2 ~invalid:true in
  check_bool "aborted" true (outcome = Neworder.Aborted);
  check_bool "next_o_id restored" true
    (Schema.row_get db drow Schema.d_next_o_id = before_noid);
  check_bool "no phantom order" true
    (Rewind_pds.Btree.lookup (Schema.order_tree db 1 2) (Schema.key_order db 1 2 2) = None);
  check_bool "consistent after abort" true (Workload.check_consistency db)

let test_crash_recovery () =
  let arena, alloc, db0 = mk () in
  let tm, db = with_tm arena alloc db0 in
  ignore (run_fixed db (Some tm) ~district:3 ~invalid:false);
  ignore (run_fixed db (Some tm) ~district:3 ~invalid:false);
  (* a third transaction left in flight *)
  let txn = Rewind.Tm.begin_txn tm in
  let drow = Schema.district_row db 1 3 in
  Schema.row_set db tm txn drow Schema.d_next_o_id 999L;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let _tm2 = Rewind.Tm.attach ~cfg:Rewind.config_1l_nfp alloc2 ~root_slot:3 in
  check_int "two committed orders" 3
    (Int64.to_int (Schema.row_get db drow Schema.d_next_o_id));
  check_bool "orders intact" true
    (Rewind_pds.Btree.lookup (Schema.order_tree db 1 3) (Schema.key_order db 1 3 2) <> None);
  check_bool "consistent after recovery" true (Workload.check_consistency db)

(* ------------------------------------------------------------------ *)
(* The three read-side / deferred transactions                         *)
(* ------------------------------------------------------------------ *)

let test_orderstatus layout () =
  let arena, alloc, db0 = mk ~layout () in
  let tm, db = with_tm arena alloc db0 in
  ignore (run_fixed db (Some tm) ~district:1 ~invalid:false);
  (match
     Orderstatus.run db
       { Orderstatus.os_warehouse = 1; os_district = 1; os_customer = 1 }
   with
  | None -> Alcotest.fail "order-status found nothing"
  | Some st ->
      check_int "found the order" 1 st.Orderstatus.st_order;
      check_int "line count" 2 st.Orderstatus.st_lines;
      check_int "undelivered" 0 st.Orderstatus.st_carrier;
      check_bool "total priced" true (st.Orderstatus.st_total > 0L));
  (* a customer with no orders *)
  check_bool "absent customer" true
    (Orderstatus.run db
       { Orderstatus.os_warehouse = 1; os_district = 4; os_customer = 9 }
    = None)

let test_delivery layout () =
  let params =
    { Datagen.items = 20; customers_per_district = 5; initial_orders = 2;
      undelivered = 2 }
  in
  let arena, alloc, db0 = mk ~layout ~warehouses:2 ~params () in
  let tm, db = with_tm arena alloc db0 in
  let q = Delivery.queue_create () in
  check_int "nothing pending" 0 (Delivery.pending q);
  check_bool "empty queue: no deferred txn" true
    (Delivery.execute_deferred db tm q = None);
  Delivery.enqueue q { Delivery.dl_warehouse = 1; dl_carrier = 7 };
  check_int "one pending" 1 (Delivery.pending q);
  (* oldest undelivered order of every district of warehouse 1 *)
  (match Delivery.execute_deferred db tm q with
  | Some n -> check_int "delivered one order per district" Schema.districts n
  | None -> Alcotest.fail "queue was not drained");
  check_int "queue drained" 0 (Delivery.pending q);
  for d = 1 to Schema.districts do
    let orow =
      Int64.to_int
        (Option.get
           (Rewind_pds.Btree.lookup (Schema.order_tree db 1 d)
              (Schema.key_order db 1 d 1)))
    in
    check_int (Fmt.str "d%d: carrier stamped" d) 7
      (Int64.to_int (Schema.row_get db orow Schema.o_carrier_id));
    check_bool (Fmt.str "d%d: new-order entry gone" d) false
      (Rewind_pds.Btree.mem (Schema.new_order_tree db 1 d)
         (Schema.key_order db 1 d 1));
    (* the second initial order is still awaiting delivery *)
    check_bool (Fmt.str "d%d: next order still queued" d) true
      (Rewind_pds.Btree.mem (Schema.new_order_tree db 1 d)
         (Schema.key_order db 1 d 2))
  done;
  (* warehouse 2 untouched *)
  check_bool "other warehouse untouched" true
    (Rewind_pds.Btree.mem (Schema.new_order_tree db 2 1)
       (Schema.key_order db 2 1 1));
  check_bool "delivery invariant" true (Workload.check_delivery_consistency db);
  (* customers were credited *)
  let credited = ref 0 in
  for d = 1 to Schema.districts do
    for c = 1 to params.Datagen.customers_per_district do
      let crow =
        Int64.to_int
          (Option.get
             (Rewind_pds.Btree.lookup (Schema.customer_tree db 1)
                (Schema.key_customer db 1 d c)))
      in
      credited :=
        !credited + Int64.to_int (Schema.row_get db crow Schema.c_delivery_cnt)
    done
  done;
  check_int "one delivery count per district" Schema.districts !credited

let test_stocklevel layout () =
  let arena, alloc, db0 = mk ~layout () in
  let tm, db = with_tm arena alloc db0 in
  ignore (run_fixed db (Some tm) ~district:1 ~invalid:false);
  let low_all =
    Stocklevel.run db
      { Stocklevel.sl_warehouse = 1; sl_district = 1; sl_threshold = 1_000 }
  in
  (* the fixed new-order references items 1 and 2 *)
  check_int "all items below a huge threshold" 2 low_all;
  check_int "none below zero threshold" 0
    (Stocklevel.run db
       { Stocklevel.sl_warehouse = 1; sl_district = 1; sl_threshold = 0 });
  check_int "empty district" 0
    (Stocklevel.run db
       { Stocklevel.sl_warehouse = 1; sl_district = 5; sl_threshold = 1_000 })

(* ------------------------------------------------------------------ *)
(* Workload drivers                                                    *)
(* ------------------------------------------------------------------ *)

let test_workload_single_terminal config () =
  let r = Workload.run ~terminals:1 ~txns_per_terminal:50 ~params:small ~arena_mb:128 ~config () in
  check_int "all transactions accounted" 50 (r.Workload.committed + r.Workload.aborted);
  check_bool "positive throughput" true (r.Workload.tpm > 0.)

let test_workload_multi_terminal () =
  let r =
    Workload.run ~terminals:4 ~txns_per_terminal:25 ~params:small ~arena_mb:128
      ~config:Workload.Rewind_opt_dlog ()
  in
  check_int "all transactions" 100 (r.Workload.committed + r.Workload.aborted);
  check_bool "positive time" true (r.Workload.sim_ns > 0);
  check_int "no shared lock, no conflicts" 0 r.Workload.retried

(* Conflict retries are bookkeeping, not transactions: under the coarse
   data lock every submitted transaction still ends exactly once in
   committed or aborted, with retries reported separately. *)
let test_workload_conflict_retries () =
  let r =
    Workload.run ~terminals:4 ~txns_per_terminal:25 ~params:small ~arena_mb:128
      ~config:Workload.Rewind_naive ()
  in
  check_int "all transactions accounted once" 100
    (r.Workload.committed + r.Workload.aborted);
  check_bool "contention on the coarse lock was retried" true
    (r.Workload.retried > 0)

let test_mix_driver partitions () =
  let r, db =
    Workload.run_mix ~warehouses:2 ~terminals_per_warehouse:2
      ~txns_per_terminal:50 ~partitions ~arena_mb:128 ()
  in
  check_int "all transactions accounted" 200
    (r.Workload.mix_committed + r.Workload.mix_aborted);
  check_bool "ran the writers" true (r.Workload.mix_new_orders > 0);
  check_bool "deferred deliveries executed" true (r.Workload.mix_deliveries > 0);
  check_bool "positive tpmC" true (r.Workload.mix_tpmc > 0.);
  check_bool "consistent" true r.Workload.mix_consistent;
  check_bool "trees well-formed" true
    (Array.for_all Rewind_pds.Btree.well_formed db.Schema.orders)

(* ------------------------------------------------------------------ *)
(* Mixed-workload crash sweep                                          *)
(* ------------------------------------------------------------------ *)

(* All five transaction types over two warehouses — including delivery's
   deferred execution — with a crash armed at every persistence event of
   the run; after each crash, recovery must be sanitizer-clean and the
   database must satisfy every mixed-workload invariant.  Covers the
   force, batch-group, and two-layer configurations at 1 and 4 log
   partitions (home-warehouse pinned). *)

let sweep_root = 3

(* No initial orders: the scripted new-orders create the only undelivered
   work, so the deferred delivery transaction visits exactly the districts
   they landed in — keeping the event window (and the O(events^2) sweep)
   small without losing mid-delivery crash points. *)
let sweep_params =
  { Datagen.items = 10; customers_per_district = 3; initial_orders = 0;
    undelivered = 0 }

let sweep_configs = configs [ "1l-fp"; "batch"; "2l-nfp" ]

let mix_sweep_setup cfg =
  let arena = Arena.create ~size_bytes:(16 lsl 20) () in
  let alloc = Alloc.create arena in
  let db =
    Schema.create ~layout:Schema.Optimized ~warehouses:2
      Rewind_pds.Btree.Direct_nvm alloc
  in
  Datagen.load ~params:sweep_params db 0;
  let tm = Rewind.Tm.create ~cfg alloc ~root_slot:sweep_root in
  let db = Schema.rebind db (Rewind_pds.Btree.Logged tm) in
  (arena, tm, db)

(* Deterministic scripted mix: per warehouse one of each type, with
   delivery enqueued and immediately executed as its deferred
   transaction (so the sweep's crash points land inside it). *)
let mix_sweep_workload tm db =
  let rng = Rng.create 4242 in
  let queue = Delivery.queue_create () in
  let home w = (w - 1) mod Rewind.Tm.partitions tm in
  for w = 1 to 2 do
    let customers = sweep_params.Datagen.customers_per_district in
    ignore
      (Neworder.run_transactional ~home:(home w) db tm
         (Neworder.gen_request ~warehouse:w ~customers rng
            ~items:sweep_params.Datagen.items));
    Payment.run_transactional ~home:(home w) db tm
      (Payment.gen_request ~warehouse:w ~customers rng);
    ignore
      (Orderstatus.run db (Orderstatus.gen_request ~warehouse:w ~customers rng));
    Delivery.enqueue queue (Delivery.gen_request ~warehouse:w rng);
    ignore (Mix.drain_deliveries ~home:(home w) db tm queue);
    ignore (Stocklevel.run db (Stocklevel.gen_request ~warehouse:w rng))
  done

let test_mix_crash_sweep (cname, cfg0) n_parts () =
  let cfg = Rewind.with_partitions n_parts cfg0 in
  (* The uncrashed mix is consistent. *)
  let _, tm, db = mix_sweep_setup cfg in
  mix_sweep_workload tm db;
  check_bool (Fmt.str "%s p%d: dry run consistent" cname n_parts) true
    (Workload.check_mix_consistency db);
  let s =
    Harness.every_event
      {
        Harness.setup = (fun () -> mix_sweep_setup cfg);
        arenas = (fun (arena, _, _) -> [| arena |]);
        window = (fun (_, tm, db) -> mix_sweep_workload tm db);
        recover =
          (fun (_, _, db) arena ->
            let alloc2 = Alloc.recover arena in
            let tm2 = Rewind.Tm.attach ~cfg alloc2 ~root_slot:sweep_root in
            Schema.rebind ~alloc:alloc2 db (Rewind_pds.Btree.Logged tm2));
        check =
          (fun _ db2 ->
            if Workload.check_mix_consistency db2 then None
            else Some "inconsistent recovery");
      }
  in
  check_bool (Fmt.str "%s p%d: mix persists events" cname n_parts) true
    (s.Harness.crash_points > 50)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "tpcc"
    [
      ( "generation",
        [
          tc "rng deterministic" `Quick test_rng_deterministic;
          tc "datagen loads" `Quick test_datagen_loads;
          tc "datagen multi-warehouse" `Quick test_datagen_multi_warehouse;
          tc "request shape" `Quick test_request_shape;
          tc "1% abort rate" `Quick test_abort_rate;
          tc "mix weights 45/43/4/4/4" `Quick test_mix_weights;
        ] );
      ( "neworder",
        [
          tc "effects (naive)" `Quick (test_neworder_effects Schema.Naive);
          tc "effects (optimized)" `Quick (test_neworder_effects Schema.Optimized);
          tc "abort rolls back (naive)" `Quick (test_abort_rolls_back Schema.Naive);
          tc "abort rolls back (optimized)" `Quick
            (test_abort_rolls_back Schema.Optimized);
          tc "crash recovery" `Quick test_crash_recovery;
        ] );
      ( "fullmix",
        [
          tc "order-status (naive)" `Quick (test_orderstatus Schema.Naive);
          tc "order-status (optimized)" `Quick (test_orderstatus Schema.Optimized);
          tc "delivery deferred (naive)" `Quick (test_delivery Schema.Naive);
          tc "delivery deferred (optimized)" `Quick (test_delivery Schema.Optimized);
          tc "stock-level (naive)" `Quick (test_stocklevel Schema.Naive);
          tc "stock-level (optimized)" `Quick (test_stocklevel Schema.Optimized);
        ] );
      ( "workload",
        [
          tc "single terminal (nvm)" `Quick
            (test_workload_single_terminal Workload.Nvm_naive);
          tc "single terminal (rewind naive)" `Quick
            (test_workload_single_terminal Workload.Rewind_naive);
          tc "single terminal (rewind opt)" `Quick
            (test_workload_single_terminal Workload.Rewind_opt);
          tc "multi terminal (dlog)" `Quick test_workload_multi_terminal;
          tc "conflict retries (naive lock)" `Quick test_workload_conflict_retries;
          tc "five-transaction mix (1 partition)" `Quick (test_mix_driver 1);
          tc "five-transaction mix (4 partitions)" `Quick (test_mix_driver 4);
        ] );
      ( "mix-crash-sweep",
        List.concat_map
          (fun ((cname, _) as c) ->
            List.map
              (fun n_parts ->
                tc
                  (Fmt.str "%s, %d partition(s), crash at every event" cname
                     n_parts)
                  `Slow
                  (test_mix_crash_sweep c n_parts))
              [ 1; 4 ])
          sweep_configs );
    ]
