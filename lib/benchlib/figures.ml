(* One runner per table/figure of the paper's evaluation (Section 5), plus
   the ablation benches DESIGN.md calls out.  Every runner prints a
   {!Series} in the paper's axes.  Parameters are scaled down from the
   paper's (documented per figure and in EXPERIMENTS.md); [scale] lets the
   caller restore the original sizes. *)

open Rewind_nvm
open Rewind
open Rewind_pds
open Rewind_baselines

let root_slot = 2

(* ------------------------------------------------------------------ *)
(* Figure 3 (left): logging overhead vs update intensity               *)
(* ------------------------------------------------------------------ *)

let fig3_left ?(n_ops = 10_000) () =
  let configs = Rewind.all_figure3_configs in
  let points = [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ] in
  let rows =
    List.map
      (fun intensity ->
        {
          Series.x = float_of_int intensity;
          ys =
            List.map
              (fun (_, cfg) -> Workloads.logging_overhead ~cfg ~intensity ~n_ops)
              configs;
        })
      points
  in
  Series.make ~id:"fig3-left" ~title:"Logging overhead vs update intensity"
    ~xlabel:"update-intensity%" ~ylabel:"slowdown vs non-recoverable"
    ~series_names:(List.map fst configs) rows

(* ------------------------------------------------------------------ *)
(* Figure 3 (right): logging overhead vs skip records (force policy)   *)
(* ------------------------------------------------------------------ *)

let fig3_right ?(target_updates = 60) () =
  let points = [ 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000 ] in
  let rows =
    List.map
      (fun skip ->
        {
          Series.x = float_of_int skip;
          ys =
            [
              Workloads.skip_commit_overhead ~cfg:Rewind.config_2l_fp
                ~target_updates ~skip;
              Workloads.skip_commit_overhead ~cfg:Rewind.config_1l_fp
                ~target_updates ~skip;
            ];
        })
      points
  in
  Series.make ~id:"fig3-right" ~title:"Logging overhead vs skip records"
    ~xlabel:"skip-records" ~ylabel:"slowdown vs non-recoverable"
    ~series_names:[ "2L-FP"; "1L-FP" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 4: rollback (left) and recovery (right) vs skip records      *)
(* ------------------------------------------------------------------ *)

let fig4_left ?(target_updates = 60) () =
  let points = [ 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000 ] in
  let rows =
    List.map
      (fun skip ->
        {
          Series.x = float_of_int skip;
          ys =
            [
              Series.ns_to_ms
                (Workloads.skip_rollback_duration ~cfg:Rewind.config_2l_fp
                   ~target_updates ~skip);
              Series.ns_to_ms
                (Workloads.skip_rollback_duration ~cfg:Rewind.config_1l_fp
                   ~target_updates ~skip);
            ];
        })
      points
  in
  Series.make ~id:"fig4-left" ~title:"Single-transaction rollback vs skip records"
    ~xlabel:"skip-records" ~ylabel:"rollback (ms)"
    ~series_names:[ "2L-FP"; "1L-FP" ] rows

let fig4_right ?(target_updates = 60) () =
  let points = [ 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000 ] in
  let rows =
    List.map
      (fun skip ->
        {
          Series.x = float_of_int skip;
          ys =
            [
              Series.ns_to_s
                (Workloads.skip_recovery_duration ~cfg:Rewind.config_2l_fp
                   ~target_updates ~skip);
              Series.ns_to_s
                (Workloads.skip_recovery_duration ~cfg:Rewind.config_1l_fp
                   ~target_updates ~skip);
            ];
        })
      points
  in
  Series.make ~id:"fig4-right" ~title:"Recovery of one transaction vs skip records"
    ~xlabel:"skip-records" ~ylabel:"recovery (s)" ~series_names:[ "2L-FP"; "1L-FP" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 5: total cost vs fraction of transactions recovered          *)
(* ------------------------------------------------------------------ *)

let fig5 ?(n_txns = 60) ?(updates_each = 40) () =
  let skips = [ 10; 150; 300 ] in
  let fractions = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
  let names =
    List.concat_map
      (fun s -> [ Fmt.str "1L-NFP-%d" s; Fmt.str "1L-FP-%d" s ])
      skips
  in
  let rows =
    List.map
      (fun fraction ->
        {
          Series.x = fraction;
          ys =
            List.concat_map
              (fun skip ->
                [
                  Series.ns_to_s
                    (Workloads.fraction_recovered_cost ~cfg:Rewind.config_1l_nfp
                       ~n_txns ~updates_each ~skip ~fraction);
                  Series.ns_to_s
                    (Workloads.fraction_recovered_cost ~cfg:Rewind.config_1l_fp
                       ~n_txns ~updates_each ~skip ~fraction);
                ])
              skips;
        })
      fractions
  in
  Series.make ~id:"fig5" ~title:"Logging + commit/recovery vs fraction recovered"
    ~xlabel:"fraction-recovered" ~ylabel:"duration (s)" ~series_names:names rows

(* ------------------------------------------------------------------ *)
(* Figure 6: checkpoint overhead                                        *)
(* ------------------------------------------------------------------ *)

let fig6 ?(n_records = 120_000) () =
  let variants =
    [ ("Simple", Log.Simple); ("Optimized", Log.Optimized); ("Batch", Log.Batch 8) ]
  in
  let freqs = [ 2.; 4.; 6.; 8.; 10.; 12.; 14. ] in
  let rows =
    List.map
      (fun freq_s ->
        {
          Series.x = freq_s;
          ys =
            List.map
              (fun (_, variant) ->
                Workloads.checkpoint_overhead ~variant ~n_records ~freq_s)
              variants;
        })
      freqs
  in
  Series.make ~id:"fig6" ~title:"Checkpoint overhead vs checkpoint frequency"
    ~xlabel:"ckpt-freq (s, paper scale)" ~ylabel:"% overhead vs no checkpoints"
    ~series_names:(List.map fst variants) rows

(* ------------------------------------------------------------------ *)
(* Figures 7-10: B+-tree workloads                                      *)
(* ------------------------------------------------------------------ *)

(* Load a B+-tree with [n_records] keys in the given persistence mode. *)
let load_tree mode alloc ~n_records =
  let bt = Btree.create mode alloc in
  let txn = match mode with Btree.Logged tm -> Tm.begin_txn tm | _ -> 0 in
  for k = 1 to n_records do
    Btree.insert bt txn (Int64.of_int (k * 2)) (Int64.of_int k)
  done;
  (match mode with Btree.Logged tm -> Tm.commit tm txn | _ -> ());
  bt

(* The Figure 7 workload: [n_ops] operations, a fraction of them updates
   (alternating insert of a fresh key / delete of an existing one — the
   tree size stays constant), the rest lookups.  Transaction per
   operation.  Returns simulated ns. *)
let btree_workload_rewind ~cfg ~n_records ~n_ops ~update_pct =
  let arena = Arena.create ~size_bytes:(256 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let bt = load_tree (Btree.Logged tm) alloc ~n_records in
  let rng = Rewind_tpcc.Rng.create 5 in
  let s = Clock.start () in
  let next_fresh = ref ((n_records * 2) + 1) in
  for i = 0 to n_ops - 1 do
    if i * 100 / n_ops mod 100 < update_pct then
      if i land 1 = 0 then begin
        let txn = Tm.begin_txn tm in
        Btree.insert bt txn (Int64.of_int !next_fresh) 1L;
        incr next_fresh;
        Tm.commit tm txn
      end
      else begin
        let txn = Tm.begin_txn tm in
        ignore (Btree.delete bt txn (Int64.of_int (!next_fresh - 1)));
        Tm.commit tm txn
      end
    else
      ignore (Btree.lookup bt (Int64.of_int (2 * Rewind_tpcc.Rng.int rng 1 n_records)))
  done;
  Clock.elapsed s

let btree_workload_raw ~mode ~n_records ~n_ops ~update_pct =
  let arena = Arena.create ~size_bytes:(128 lsl 20) () in
  let alloc = Alloc.create arena in
  let bt = load_tree mode alloc ~n_records in
  let rng = Rewind_tpcc.Rng.create 5 in
  let s = Clock.start () in
  let next_fresh = ref ((n_records * 2) + 1) in
  for i = 0 to n_ops - 1 do
    if i * 100 / n_ops mod 100 < update_pct then begin
      if i land 1 = 0 then begin
        Btree.insert bt 0 (Int64.of_int !next_fresh) 1L;
        incr next_fresh
      end
      else ignore (Btree.delete bt 0 (Int64.of_int (!next_fresh - 1)))
    end
    else
      ignore (Btree.lookup bt (Int64.of_int (2 * Rewind_tpcc.Rng.int rng 1 n_records)))
  done;
  Clock.elapsed s

let kv_workload_baseline ~make ~n_records ~n_ops ~update_pct =
  let kv = make () in
  let t0 = Paged_kv.begin_txn kv in
  for k = 1 to n_records do
    Paged_kv.put kv t0 (Int64.of_int (k * 2)) (Int64.of_int k)
  done;
  Paged_kv.commit kv t0;
  Paged_kv.checkpoint kv;
  let rng = Rewind_tpcc.Rng.create 5 in
  let s = Clock.start () in
  let next_fresh = ref ((n_records * 2) + 1) in
  for i = 0 to n_ops - 1 do
    if i * 100 / n_ops mod 100 < update_pct then begin
      let txn = Paged_kv.begin_txn kv in
      if i land 1 = 0 then begin
        Paged_kv.put kv txn (Int64.of_int !next_fresh) 1L;
        incr next_fresh
      end
      else ignore (Paged_kv.delete kv txn (Int64.of_int (!next_fresh - 1)));
      Paged_kv.commit kv txn
    end
    else
      ignore (Paged_kv.lookup kv (Int64.of_int (2 * Rewind_tpcc.Rng.int rng 1 n_records)))
  done;
  Clock.elapsed s

let update_fractions = [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]

let fig7_left ?(n_records = 10_000) ?(n_ops = 20_000) () =
  let simple = { Rewind.config_1l_nfp with variant = Log.Simple } in
  let opt = Rewind.config_1l_nfp in
  let batch = { Rewind.config_1l_nfp with variant = Log.Batch 8 } in
  let rows =
    List.map
      (fun pct ->
        {
          Series.x = float_of_int pct;
          ys =
            [
              Series.ns_to_s
                (btree_workload_rewind ~cfg:simple ~n_records ~n_ops ~update_pct:pct);
              Series.ns_to_s
                (btree_workload_rewind ~cfg:opt ~n_records ~n_ops ~update_pct:pct);
              Series.ns_to_s
                (btree_workload_rewind ~cfg:batch ~n_records ~n_ops ~update_pct:pct);
              Series.ns_to_s
                (btree_workload_raw ~mode:Btree.Direct_nvm ~n_records ~n_ops
                   ~update_pct:pct);
              Series.ns_to_s
                (btree_workload_raw ~mode:Btree.Dram ~n_records ~n_ops
                   ~update_pct:pct);
            ];
        })
      update_fractions
  in
  Series.make ~id:"fig7-left" ~title:"B+-tree logging: REWIND vs no recoverability"
    ~xlabel:"update-fraction%" ~ylabel:"response time (s)"
    ~series_names:[ "REWIND"; "REWIND-Opt"; "REWIND-Batch"; "NVM"; "DRAM" ] rows

let fig7_right ?(n_records = 10_000) ?(n_ops = 20_000) () =
  let batch = { Rewind.config_1l_nfp with variant = Log.Batch 8 } in
  let rows =
    List.map
      (fun pct ->
        {
          Series.x = float_of_int pct;
          ys =
            [
              Series.ns_to_s
                (kv_workload_baseline
                   ~make:(fun () -> Bdb_like.create ())
                   ~n_records ~n_ops ~update_pct:pct);
              Series.ns_to_s
                (kv_workload_baseline
                   ~make:(fun () -> Stasis_like.create ())
                   ~n_records ~n_ops ~update_pct:pct);
              Series.ns_to_s
                (btree_workload_rewind ~cfg:batch ~n_records ~n_ops ~update_pct:pct);
              Series.ns_to_s
                (kv_workload_baseline
                   ~make:(fun () -> Shore_like.create ())
                   ~n_records ~n_ops ~update_pct:pct);
            ];
        })
      update_fractions
  in
  Series.make ~id:"fig7-right"
    ~title:"B+-tree logging: REWIND vs Stasis, BerkeleyDB, Shore-MT"
    ~xlabel:"update-fraction%" ~ylabel:"response time (s)"
    ~series_names:[ "BerkeleyDB"; "Stasis"; "REWIND-Batch"; "Shore-MT" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 8: rollback (left) and multi-transaction recovery (right)    *)
(* ------------------------------------------------------------------ *)

(* Mixed insert/delete run of [n_ops] on a pre-loaded tree; one
   transaction per [ops_per_txn] operations (0 = one transaction for the
   whole run).  Finishes with a rollback (single transaction) or a crash +
   recovery (multiple). *)
let rewind_mixed_run ~n_records ~n_ops ~ops_per_txn =
  let cfg = { Rewind.config_1l_nfp with variant = Log.Batch 8 } in
  let arena = Arena.create ~size_bytes:(640 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let bt = load_tree (Btree.Logged tm) alloc ~n_records in
  let next_fresh = ref ((n_records * 2) + 1) in
  let txn = ref (Tm.begin_txn tm) in
  let open_txn = ref true in
  for i = 0 to n_ops - 1 do
    if ops_per_txn > 0 && i > 0 && i mod ops_per_txn = 0 then begin
      Tm.commit tm !txn;
      txn := Tm.begin_txn tm;
      open_txn := true
    end;
    if i land 1 = 0 then begin
      Btree.insert bt !txn (Int64.of_int !next_fresh) 1L;
      incr next_fresh
    end
    else ignore (Btree.delete bt !txn (Int64.of_int (!next_fresh - 1)))
  done;
  (arena, tm, !txn, !open_txn)

let fig8_ops = [ 8_000; 16_000; 24_000; 32_000; 40_000; 48_000; 56_000; 64_000; 72_000; 80_000 ]

let baseline_mixed_run kv ~n_records ~n_ops ~ops_per_txn =
  let t0 = Paged_kv.begin_txn kv in
  for k = 1 to n_records do
    Paged_kv.put kv t0 (Int64.of_int (k * 2)) (Int64.of_int k)
  done;
  Paged_kv.commit kv t0;
  Paged_kv.checkpoint kv;
  let next_fresh = ref ((n_records * 2) + 1) in
  let txn = ref (Paged_kv.begin_txn kv) in
  for i = 0 to n_ops - 1 do
    if ops_per_txn > 0 && i > 0 && i mod ops_per_txn = 0 then begin
      Paged_kv.commit kv !txn;
      txn := Paged_kv.begin_txn kv
    end;
    if i land 1 = 0 then begin
      Paged_kv.put kv !txn (Int64.of_int !next_fresh) 1L;
      incr next_fresh
    end
    else ignore (Paged_kv.delete kv !txn (Int64.of_int (!next_fresh - 1)))
  done;
  !txn

let fig8_left ?(n_records = 10_000) () =
  let rollback_rewind n_ops =
    let _, tm, txn, _ = rewind_mixed_run ~n_records ~n_ops ~ops_per_txn:0 in
    let s = Clock.start () in
    Tm.rollback tm txn;
    Clock.elapsed s
  in
  let rollback_baseline make n_ops =
    let kv = make () in
    let txn = baseline_mixed_run kv ~n_records ~n_ops ~ops_per_txn:0 in
    let s = Clock.start () in
    Paged_kv.rollback kv txn;
    Clock.elapsed s
  in
  let rows =
    List.map
      (fun n_ops ->
        {
          Series.x = float_of_int n_ops /. 1000.;
          ys =
            [
              Series.ns_to_s (rollback_baseline (fun () -> Shore_like.create ()) n_ops);
              Series.ns_to_s (rollback_baseline (fun () -> Bdb_like.create ()) n_ops);
              Series.ns_to_s (rollback_baseline (fun () -> Stasis_like.create ()) n_ops);
              Series.ns_to_s (rollback_rewind n_ops);
            ];
        })
      fig8_ops
  in
  Series.make ~id:"fig8-left" ~title:"B+-tree single-transaction rollback"
    ~xlabel:"thousand-ops" ~ylabel:"duration (s)"
    ~series_names:[ "Shore-MT"; "BerkeleyDB"; "Stasis"; "REWIND-Batch" ] rows

let fig8_right ?(n_records = 10_000) () =
  let recover_rewind n_ops =
    let arena, tm, txn, open_txn = rewind_mixed_run ~n_records ~n_ops ~ops_per_txn:200 in
    if open_txn then Tm.commit tm txn;
    Arena.crash arena;
    let alloc = Alloc.recover arena in
    let cfg = { Rewind.config_1l_nfp with variant = Log.Batch 8 } in
    let s = Clock.start () in
    let _tm = Tm.attach ~cfg alloc ~root_slot in
    Clock.elapsed s
  in
  let recover_baseline make n_ops =
    let kv = make () in
    let txn = baseline_mixed_run kv ~n_records ~n_ops ~ops_per_txn:200 in
    Paged_kv.commit kv txn;
    Paged_kv.crash kv;
    let s = Clock.start () in
    Paged_kv.recover kv;
    Clock.elapsed s
  in
  let rows =
    List.map
      (fun n_ops ->
        {
          Series.x = float_of_int n_ops /. 1000.;
          ys =
            [
              Series.ns_to_s (recover_baseline (fun () -> Shore_like.create ()) n_ops);
              Series.ns_to_s (recover_baseline (fun () -> Bdb_like.create ()) n_ops);
              Series.ns_to_s (recover_baseline (fun () -> Stasis_like.create ()) n_ops);
              Series.ns_to_s (recover_rewind n_ops);
            ];
        })
      fig8_ops
  in
  Series.make ~id:"fig8-right" ~title:"B+-tree multi-transaction recovery"
    ~xlabel:"thousand-ops" ~ylabel:"duration (s)"
    ~series_names:[ "Shore-MT"; "BerkeleyDB"; "Stasis"; "REWIND-Batch" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 9: multithreaded B+-tree logging                              *)
(* ------------------------------------------------------------------ *)

(* Each thread performs [ops_per_thread] operations at its assigned
   lookup ratio (20-80 %): a lookup, or an insert/delete pair.  REWIND:
   per-thread trees over one shared transaction manager (its log latch is
   the contention point).  Baselines: one shared store; writers take the
   partition lock, readers are lock-free. *)
let lookup_ratio thread = 20 + (thread * 60 / 7) mod 61

let fig9_rewind ?(partitions = 1) ~threads ~ops_per_thread ~n_records () =
  let cfg =
    Rewind.with_partitions partitions
      { Rewind.config_1l_nfp with variant = Log.Batch 8 }
  in
  let arena = Arena.create ~size_bytes:(384 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let trees =
    Array.init threads (fun _ -> load_tree (Btree.Logged tm) alloc ~n_records)
  in
  let rngs = Array.init threads (fun t -> Rewind_tpcc.Rng.create (77 + t)) in
  let next_fresh =
    Array.init threads (fun t -> (n_records * 2) + 1 + (t * 10_000_000))
  in
  Sim_threads.run ~threads ~ops_per_thread (fun t _ ->
      let bt = trees.(t) and rng = rngs.(t) in
      let ratio = lookup_ratio t in
      if Rewind_tpcc.Rng.int rng 1 100 <= ratio then
        ignore
          (Btree.lookup bt (Int64.of_int (2 * Rewind_tpcc.Rng.int rng 1 n_records)))
      else begin
        let txn = Tm.begin_txn tm in
        Btree.insert bt txn (Int64.of_int next_fresh.(t)) 1L;
        ignore (Btree.delete bt txn (Int64.of_int next_fresh.(t)));
        next_fresh.(t) <- next_fresh.(t) + 1;
        Tm.commit tm txn
      end)

let fig9_baseline ~make ~threads ~ops_per_thread ~n_records =
  let kv = make () in
  let t0 = Paged_kv.begin_txn kv in
  for k = 1 to n_records do
    Paged_kv.put kv t0 (Int64.of_int (k * 2)) (Int64.of_int k)
  done;
  Paged_kv.commit kv t0;
  Paged_kv.checkpoint kv;
  let rngs = Array.init threads (fun t -> Rewind_tpcc.Rng.create (77 + t)) in
  let next_fresh = Array.init threads (fun t -> 1_000_000 * (t + 1)) in
  Sim_threads.run ~threads ~ops_per_thread (fun t _ ->
      let rng = rngs.(t) in
      let ratio = lookup_ratio t in
      if Rewind_tpcc.Rng.int rng 1 100 <= ratio then
        ignore
          (Paged_kv.lookup kv (Int64.of_int (2 * Rewind_tpcc.Rng.int rng 1 n_records)))
      else begin
        let txn = Paged_kv.begin_txn kv in
        Paged_kv.put kv txn (Int64.of_int next_fresh.(t)) 1L;
        ignore (Paged_kv.delete kv txn (Int64.of_int next_fresh.(t)));
        next_fresh.(t) <- next_fresh.(t) + 1;
        Paged_kv.commit kv txn
      end)

let fig9 ?(ops_per_thread = 10_000) ?(n_records = 4_000) () =
  let rows =
    List.map
      (fun threads ->
        {
          Series.x = float_of_int threads;
          ys =
            [
              Series.ns_to_s
                (fig9_baseline
                   ~make:(fun () -> Shore_like.create ())
                   ~threads ~ops_per_thread ~n_records);
              Series.ns_to_s
                (fig9_baseline
                   ~make:(fun () -> Bdb_like.create ())
                   ~threads ~ops_per_thread ~n_records);
              Series.ns_to_s
                (fig9_baseline
                   ~make:(fun () -> Stasis_like.create ())
                   ~threads ~ops_per_thread ~n_records);
              Series.ns_to_s (fig9_rewind ~threads ~ops_per_thread ~n_records ());
              Series.ns_to_s
                (fig9_rewind ~partitions:8 ~threads ~ops_per_thread ~n_records ());
            ];
        })
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Series.make ~id:"fig9" ~title:"Multithreaded B+-tree logging"
    ~xlabel:"threads" ~ylabel:"processing time (s)"
    ~series_names:
      [ "Shore-MT"; "BerkeleyDB"; "Stasis"; "REWIND-Batch"; "REWIND-Batch-P8" ]
    rows

(* Partition scaling on its own: fixed thread count, varying partition
   count (the {!Scaling_bench} workload rendered as a series). *)
let scaling ?(threads = 8) ?(txns_per_thread = 400) () =
  let rows =
    List.map
      (fun (p, tput) -> { Series.x = float_of_int p; ys = [ tput ] })
      (* partitioned rows only: the InCLL row is not a partition count *)
      (Scaling_bench.batch_series
         (Scaling_bench.run ~threads ~txns_per_thread ()))
  in
  Series.make ~id:"scaling" ~title:"Partitioned-log write scaling"
    ~xlabel:"partitions" ~ylabel:"updates per simulated second"
    ~series_names:[ Printf.sprintf "%d threads" threads ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 10: memory-fence sensitivity                                  *)
(* ------------------------------------------------------------------ *)

let fig10 ?(n_records = 5_000) ?(n_ops = 10_000) () =
  (* Fifty operations per transaction: log-record groups then span many
     records between END records, which is what lets larger group sizes
     amortise the fence (Section 3.3's reordering across user writes). *)
  let run variant fence_ns =
    let config = Config.default () in
    config.Config.fence_ns <- fence_ns;
    let arena = Arena.create ~config ~size_bytes:(192 lsl 20) () in
    let alloc = Alloc.create arena in
    let cfg = { Rewind.config_1l_nfp with variant } in
    let tm = Tm.create ~cfg alloc ~root_slot in
    let bt = load_tree (Btree.Logged tm) alloc ~n_records in
    let next_fresh = ref ((n_records * 2) + 1) in
    let s = Clock.start () in
    let txn = ref (Tm.begin_txn tm) in
    for i = 0 to n_ops - 1 do
      if i > 0 && i mod 50 = 0 then begin
        Tm.commit tm !txn;
        txn := Tm.begin_txn tm
      end;
      if i land 1 = 0 then begin
        Btree.insert bt !txn (Int64.of_int !next_fresh) 1L;
        incr next_fresh
      end
      else ignore (Btree.delete bt !txn (Int64.of_int (!next_fresh - 1)))
    done;
    Tm.commit tm !txn;
    Clock.elapsed s
  in
  let latencies_us = [ 0; 1; 2; 3; 4; 5 ] in
  let rows =
    List.map
      (fun us ->
        let f = us * 1000 in
        {
          Series.x = float_of_int us;
          ys =
            [
              Series.ns_to_s (run (Log.Batch 32) f);
              Series.ns_to_s (run (Log.Batch 16) f);
              Series.ns_to_s (run (Log.Batch 8) f);
              Series.ns_to_s (run Log.Optimized f);
            ];
        })
      latencies_us
  in
  Series.make ~id:"fig10" ~title:"Memory-fence latency sensitivity"
    ~xlabel:"fence-latency (us)" ~ylabel:"duration (s)"
    ~series_names:[ "Batch-32"; "Batch-16"; "Batch-8"; "Optimized" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 11: TPC-C new-order throughput                                *)
(* ------------------------------------------------------------------ *)

let fig11 ?(txns_per_terminal = 300) ?(params = Rewind_tpcc.Datagen.small) () =
  let open Rewind_tpcc in
  let run config =
    (Workload.run ~txns_per_terminal ~params ~arena_mb:384 ~config ()).Workload.tpm
    /. 1000.
  in
  [
    ("Simple NVM B+Trees", run Workload.Nvm_naive);
    ("REWIND Opt. Data Structure D.Log", run Workload.Rewind_opt_dlog);
    ("REWIND Opt. Data Structure", run Workload.Rewind_opt);
    ("REWIND Naive Data Structure", run Workload.Rewind_naive);
  ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                      *)
(* ------------------------------------------------------------------ *)

(* Bucket size of the Optimized log: logging cost per record. *)
let ablation_bucket_size ?(n_ops = 20_000) () =
  let rows =
    List.map
      (fun cap ->
        let cfg = { Rewind.config_1l_nfp with bucket_cap = cap } in
        let env = Workloads.make_env ~cfg () in
        let t = Workloads.rewind_time env ~n_ops ~intensity:100 in
        { Series.x = float_of_int cap; ys = [ float_of_int t /. float_of_int n_ops ] })
      [ 10; 50; 100; 500; 1000; 5000 ]
  in
  Series.make ~id:"ablation-bucket" ~title:"Optimized-log bucket size"
    ~xlabel:"bucket-capacity" ~ylabel:"ns/record" ~series_names:[ "1L-NFP" ] rows

(* Batch group size at two fence costs: the pure write-overhead side of
   Figure 10. *)
let ablation_group ?(n_ops = 20_000) () =
  let cost group fence_ns =
    let config = Config.default () in
    config.Config.fence_ns <- fence_ns;
    let arena = Arena.create ~config ~size_bytes:(128 lsl 20) () in
    let alloc = Alloc.create arena in
    let cfg = { Rewind.config_1l_nfp with variant = Log.Batch group } in
    let tm = Tm.create ~cfg alloc ~root_slot in
    let table = Ptable.create alloc ~slots:4096 in
    let s = Clock.start () in
    let txn = Tm.begin_txn tm in
    for i = 0 to n_ops - 1 do
      Ptable.set table tm txn (i mod 4096) (Int64.of_int i)
    done;
    Tm.commit tm txn;
    float_of_int (Clock.elapsed s) /. float_of_int n_ops
  in
  let rows =
    List.map
      (fun g ->
        { Series.x = float_of_int g; ys = [ cost g 100; cost g 1000 ] })
      [ 1; 2; 4; 8; 16; 32; 64 ]
  in
  Series.make ~id:"ablation-group" ~title:"Batch group size vs fence cost"
    ~xlabel:"group-size" ~ylabel:"ns/record"
    ~series_names:[ "fence=100ns"; "fence=1us" ] rows

(* Section 7 future work, measured: the lock-free log fast path vs the
   latched log under the shared-log multithreaded workload of Figure 9. *)
let ablation_lockfree ?(ops_per_thread = 5_000) ?(n_records = 2_000) () =
  let run cfg threads =
    let arena = Arena.create ~size_bytes:(384 lsl 20) () in
    let alloc = Alloc.create arena in
    let tm = Tm.create ~cfg alloc ~root_slot in
    let trees =
      Array.init threads (fun _ -> load_tree (Btree.Logged tm) alloc ~n_records)
    in
    let next_fresh =
      Array.init threads (fun t -> (n_records * 2) + 1 + (t * 10_000_000))
    in
    Sim_threads.run ~threads ~ops_per_thread (fun t _ ->
        let txn = Tm.begin_txn tm in
        Btree.insert trees.(t) txn (Int64.of_int next_fresh.(t)) 1L;
        ignore (Btree.delete trees.(t) txn (Int64.of_int next_fresh.(t)));
        next_fresh.(t) <- next_fresh.(t) + 1;
        Tm.commit tm txn)
  in
  let rows =
    List.map
      (fun threads ->
        {
          Series.x = float_of_int threads;
          ys =
            [
              Series.ns_to_s (run (Rewind.config_batch ()) threads);
              Series.ns_to_s (run (Rewind.config_lockfree ()) threads);
            ];
        })
      [ 1; 2; 4; 8 ]
  in
  Series.make ~id:"ablation-lockfree"
    ~title:"Latched vs lock-free log under shared-log multithreading"
    ~xlabel:"threads" ~ylabel:"duration (s)"
    ~series_names:[ "latched"; "lock-free" ] rows

(* Force + commit-time clearing vs no-force + checkpointing at equal
   workload: cost per transaction for varying transaction sizes. *)
let ablation_policy ?(n_txns = 2_000) () =
  let cost cfg updates =
    let env = Workloads.make_env ~cfg () in
    let s = Clock.start () in
    for t = 0 to n_txns - 1 do
      let txn = Tm.begin_txn env.Workloads.tm in
      for u = 0 to updates - 1 do
        Ptable.set env.Workloads.table env.Workloads.tm txn
          (((t * updates) + u) mod 4096)
          (Int64.of_int u)
      done;
      Tm.commit env.Workloads.tm txn;
      (* the no-force side pays its clearing at checkpoints instead *)
      if cfg.Rewind.policy = Tm.No_force && t mod 500 = 499 then
        Tm.checkpoint env.Workloads.tm
    done;
    float_of_int (Clock.elapsed s) /. float_of_int n_txns
  in
  let rows =
    List.map
      (fun updates ->
        {
          Series.x = float_of_int updates;
          ys =
            [
              cost Rewind.config_1l_fp updates;
              cost Rewind.config_1l_nfp updates;
            ];
        })
      [ 1; 5; 10; 50; 100 ]
  in
  Series.make ~id:"ablation-policy"
    ~title:"Force + commit clearing vs no-force + checkpoints"
    ~xlabel:"updates/txn" ~ylabel:"ns/txn" ~series_names:[ "1L-FP"; "1L-NFP" ] rows

(* ------------------------------------------------------------------ *)
(* The figure table                                                     *)
(* ------------------------------------------------------------------ *)

(* Every figure `rewind figure` and bench/main.exe run, by name, with the
   parameters EXPERIMENTS.md was generated with; [quick] picks the
   CI-sized ones.  A runner prints its result and, given [csv], also
   writes it to a CSV file in that directory; [append] writes its bench
   rows to BENCH_append.json. *)
let table : (string * (quick:bool -> csv:string option -> unit)) list =
  let csv_note = Option.iter (Fmt.pr "# csv: %s@.") in
  let lines f ~quick ~csv =
    let t = f (fun v q -> if quick then q else v) in
    Series.print t;
    csv_note (Option.map (Series.to_csv t) csv)
  in
  [
    ("fig3-left", lines (fun s -> fig3_left ~n_ops:(s 10_000 2_000) ()));
    ("fig3-right", lines (fun s -> fig3_right ~target_updates:(s 60 20) ()));
    ("fig4-left", lines (fun s -> fig4_left ~target_updates:(s 60 20) ()));
    ("fig4-right", lines (fun s -> fig4_right ~target_updates:(s 60 20) ()));
    ( "fig5",
      lines (fun s -> fig5 ~n_txns:(s 400 350) ~updates_each:(s 10 4) ()) );
    ("fig6", lines (fun s -> fig6 ~n_records:(s 120_000 30_000) ()));
    ( "fig7-left",
      lines (fun s ->
          fig7_left ~n_records:(s 10_000 2_000) ~n_ops:(s 20_000 4_000) ()) );
    ( "fig7-right",
      lines (fun s ->
          fig7_right ~n_records:(s 10_000 2_000) ~n_ops:(s 20_000 4_000) ()) );
    ("fig8-left", lines (fun s -> fig8_left ~n_records:(s 10_000 2_000) ()));
    ("fig8-right", lines (fun s -> fig8_right ~n_records:(s 10_000 2_000) ()));
    ( "fig9",
      lines (fun s ->
          fig9 ~ops_per_thread:(s 10_000 2_000) ~n_records:(s 4_000 1_000) ())
    );
    ( "fig10",
      lines (fun s ->
          fig10 ~n_records:(s 5_000 1_000) ~n_ops:(s 10_000 2_000) ()) );
    ( "fig11",
      fun ~quick ~csv ->
        let id = "fig11" in
        let bars = fig11 ~txns_per_terminal:(if quick then 60 else 300) () in
        Series.print_bars ~id ~title:"TPC-C new-order throughput"
          ~ylabel:"thousand transactions per simulated minute" bars;
        csv_note (Option.map (Series.bars_to_csv ~id ~ylabel:"ktpm" bars) csv)
    );
    ("scaling", lines (fun s -> scaling ~txns_per_thread:(s 400 100) ()));
    ("ablation-bucket", lines (fun _ -> ablation_bucket_size ()));
    ("ablation-group", lines (fun _ -> ablation_group ()));
    ("ablation-policy", lines (fun s -> ablation_policy ~n_txns:(s 2_000 500) ()));
    ("ablation-lockfree", lines (fun _ -> ablation_lockfree ()));
    ( "append",
      fun ~quick ~csv:_ ->
        let rows = Append_bench.run ~n_ops:(if quick then 4_000 else 20_000) () in
        Fmt.pr "@.== append: inline vs full-record log appends ==@.%a"
          Bench_row.pp_table rows;
        Bench_row.write_rows ~json:"BENCH_append.json" rows );
  ]

let names = List.map fst table
