(* One runner per table/figure of the paper's evaluation (Section 5), plus
   the ablation benches DESIGN.md calls out, and {!table}: every bench
   `rewind bench` runs, these and the gated ones.  Every figure runner
   returns {!Bench_row} rows in the paper's axes: one row per x point, the
   x value a label named after the axis, and each series an [Info] metric
   named after it.  Parameters are scaled down from the paper's
   (documented per figure and in EXPERIMENTS.md). *)

open Rewind_nvm
open Rewind
open Rewind_pds
open Rewind_baselines

let root_slot = 2

(* One row of [bench] per point [p] of the x axis [x], labelled
   [label p]; each series [(name, f)] is the metric [name] = [f p]. *)
let labelled_rows label bench ~x points series =
  List.map
    (fun p ->
      {
        Bench_row.bench;
        labels = [ (x, label p) ];
        metrics = List.map (fun (name, f) -> Bench_row.info name (f p)) series;
      })
    points

let rows = labelled_rows string_of_int
let secs ns = float_of_int ns /. 1e9
let tens = List.init 10 (fun i -> (i + 1) * 10)

(* ------------------------------------------------------------------ *)
(* Figure 3 (left): logging overhead vs update intensity               *)
(* ------------------------------------------------------------------ *)

let fig3_left ?(n_ops = 10_000) () =
  rows "fig3-left" ~x:"update-intensity%" tens
    (List.map
       (fun (name, cfg) ->
         ( name,
           fun intensity -> Workloads.logging_overhead ~cfg ~intensity ~n_ops ))
       Rewind.all_figure3_configs)

(* ------------------------------------------------------------------ *)
(* Figures 3 (right) and 4: force-policy cost vs skip records          *)
(* ------------------------------------------------------------------ *)

(* [f ~cfg ~skip] for both force configurations at 100..1000 skip
   records. *)
let skip_figure bench f =
  rows bench ~x:"skip-records"
    (List.map (( * ) 10) tens)
    (List.map
       (fun (name, cfg) -> (name, fun skip -> f ~cfg ~skip))
       [ ("2L-FP", Rewind.config_2l_fp); ("1L-FP", Rewind.config_1l_fp) ])

let fig3_right ?(target_updates = 60) () =
  skip_figure "fig3-right" (Workloads.skip_commit_overhead ~target_updates)

let fig4_left ?(target_updates = 60) () =
  skip_figure "fig4-left" (fun ~cfg ~skip ->
      float_of_int (Workloads.skip_rollback_duration ~cfg ~target_updates ~skip)
      /. 1e6)

let fig4_right ?(target_updates = 60) () =
  skip_figure "fig4-right" (fun ~cfg ~skip ->
      secs (Workloads.skip_recovery_duration ~cfg ~target_updates ~skip))

(* ------------------------------------------------------------------ *)
(* Figure 5: total cost vs fraction of transactions recovered          *)
(* ------------------------------------------------------------------ *)

let fig5 ?(n_txns = 60) ?(updates_each = 40) () =
  let cost cfg skip fraction =
    secs
      (Workloads.fraction_recovered_cost ~cfg ~n_txns ~updates_each ~skip
         ~fraction)
  in
  labelled_rows (Printf.sprintf "%g") "fig5" ~x:"fraction-recovered"
    (List.init 11 (fun i -> float_of_int i /. 10.))
    (List.concat_map
       (fun skip ->
         [
           (Fmt.str "1L-NFP-%d" skip, cost Rewind.config_1l_nfp skip);
           (Fmt.str "1L-FP-%d" skip, cost Rewind.config_1l_fp skip);
         ])
       [ 10; 150; 300 ])

(* ------------------------------------------------------------------ *)
(* Figure 6: checkpoint overhead                                        *)
(* ------------------------------------------------------------------ *)

let fig6 ?(n_records = 120_000) () =
  rows "fig6" ~x:"ckpt-freq (s, paper scale)"
    (List.init 7 (fun i -> (i + 1) * 2))
    (List.map
       (fun (name, variant) ->
         ( name,
           fun freq ->
             Workloads.checkpoint_overhead ~variant ~n_records
               ~freq_s:(float_of_int freq) ))
       [
         ("Simple", Log.Simple);
         ("Optimized", Log.Optimized);
         ("Batch", Log.Batch 8);
       ])

(* ------------------------------------------------------------------ *)
(* Figures 7-10: B+-tree workloads                                      *)
(* ------------------------------------------------------------------ *)

(* A key-value store as the B+-tree workloads drive it.  [load n] inserts
   keys 2, 4, .., 2n in one transaction; a store without transactions
   begins transaction 0 and commits nothing. *)
type store = {
  load : int -> unit;
  begin_ : unit -> int;
  insert : int -> int64 -> unit;
  delete : int -> int64 -> unit;
  lookup : int64 -> unit;
  commit : int -> unit;
}

(* A B+-tree: logged through its [Tm], or raw ([Direct_nvm], [Dram]). *)
let tree mode alloc =
  let bt = Btree.create mode alloc in
  let begin_, commit =
    match mode with
    | Btree.Logged tm -> ((fun () -> Tm.begin_txn tm), Tm.commit tm)
    | _ -> ((fun () -> 0), ignore)
  in
  let load n =
    let txn = begin_ () in
    for k = 1 to n do
      Btree.insert bt txn (Int64.of_int (k * 2)) (Int64.of_int k)
    done;
    commit txn
  in
  {
    load;
    begin_;
    commit;
    insert = (fun txn k -> Btree.insert bt txn k 1L);
    delete = (fun txn k -> ignore (Btree.delete bt txn k));
    lookup = (fun k -> ignore (Btree.lookup bt k));
  }

(* A page-based baseline; its load ends with a checkpoint. *)
let paged kv =
  let load n =
    let txn = Paged_kv.begin_txn kv in
    for k = 1 to n do
      Paged_kv.put kv txn (Int64.of_int (k * 2)) (Int64.of_int k)
    done;
    Paged_kv.commit kv txn;
    Paged_kv.checkpoint kv
  in
  {
    load;
    begin_ = (fun () -> Paged_kv.begin_txn kv);
    commit = Paged_kv.commit kv;
    insert = (fun txn k -> Paged_kv.put kv txn k 1L);
    delete = (fun txn k -> ignore (Paged_kv.delete kv txn k));
    lookup = (fun k -> ignore (Paged_kv.lookup kv k));
  }

let baselines =
  Paged_kv.
    [
      ("Shore-MT", shore_profile);
      ("BerkeleyDB", bdb_profile);
      ("Stasis", stasis_profile);
    ]

(* A transaction manager in [cfg] over a fresh [mb] MiB arena. *)
let logged ?config ~mb cfg =
  let arena = Arena.create ?config ~size_bytes:(mb lsl 20) () in
  let alloc = Alloc.create arena in
  (arena, alloc, Tm.create ~cfg alloc ~root_slot)

let nfp variant = { Rewind.config_1l_nfp with variant }
let batch8 = nfp (Log.Batch 8)

let logged_tree ~mb cfg =
  let _, alloc, tm = logged ~mb cfg in
  tree (Btree.Logged tm) alloc

(* The Figure 7 workload: [n_ops] operations, a fraction of them updates
   (alternating insert of a fresh key / delete of it — the tree size stays
   constant) in a transaction each, the rest lookups.  Returns simulated
   ns. *)
let op_mix st ~n_records ~n_ops ~update_pct =
  st.load n_records;
  let rng = Rewind_tpcc.Rng.create 5 in
  let s = Clock.start () in
  let next_fresh = ref ((n_records * 2) + 1) in
  for i = 0 to n_ops - 1 do
    if i * 100 / n_ops mod 100 < update_pct then begin
      let txn = st.begin_ () in
      if i land 1 = 0 then begin
        st.insert txn (Int64.of_int !next_fresh);
        incr next_fresh
      end
      else st.delete txn (Int64.of_int (!next_fresh - 1));
      st.commit txn
    end
    else st.lookup (Int64.of_int (2 * Rewind_tpcc.Rng.int rng 1 n_records))
  done;
  Clock.elapsed s

(* Mixed insert/delete run of [n_ops] on a loaded store, committing every
   [ops_per_txn] operations (0 = one transaction for the whole run).
   Returns the last transaction, still open, and a span started after the
   load. *)
let mixed_run st ~n_records ~n_ops ~ops_per_txn =
  st.load n_records;
  let next_fresh = ref ((n_records * 2) + 1) in
  let s = Clock.start () in
  let txn = ref (st.begin_ ()) in
  for i = 0 to n_ops - 1 do
    if ops_per_txn > 0 && i > 0 && i mod ops_per_txn = 0 then begin
      st.commit !txn;
      txn := st.begin_ ()
    end;
    if i land 1 = 0 then begin
      st.insert !txn (Int64.of_int !next_fresh);
      incr next_fresh
    end
    else st.delete !txn (Int64.of_int (!next_fresh - 1))
  done;
  (!txn, s)

(* Each of [threads] fibers performs [ops_per_thread] operations: with
   [lookups], a lookup at its assigned ratio (20-80 %); otherwise a
   transaction inserting and deleting one fresh key, counting up from
   [fresh t].  [stores] loaded stores come from [make]: one per thread, or
   one that every thread shares. *)
let lookup_ratio thread = 20 + (thread * 60 / 7) mod 61

let per_thread_run make ~stores ~threads ~ops_per_thread ~n_records ~lookups
    ~fresh =
  let loaded =
    Array.init stores (fun _ ->
        let st = make () in
        st.load n_records;
        st)
  in
  let rngs = Array.init threads (fun t -> Rewind_tpcc.Rng.create (77 + t)) in
  let next_fresh = Array.init threads fresh in
  Sim_threads.run ~threads ~ops_per_thread (fun t _ ->
      let st = loaded.(t mod stores) and rng = rngs.(t) in
      if lookups && Rewind_tpcc.Rng.int rng 1 100 <= lookup_ratio t then
        st.lookup (Int64.of_int (2 * Rewind_tpcc.Rng.int rng 1 n_records))
      else begin
        let txn = st.begin_ () in
        let k = Int64.of_int next_fresh.(t) in
        st.insert txn k;
        st.delete txn k;
        next_fresh.(t) <- next_fresh.(t) + 1;
        st.commit txn
      end)

(* ------------------------------------------------------------------ *)
(* Figure 7: B+-tree logging vs update fraction                         *)
(* ------------------------------------------------------------------ *)

let fig7 bench ~n_records ~n_ops series =
  rows bench ~x:"update-fraction%" tens
    (List.map
       (fun (name, make) ->
         ( name,
           fun update_pct ->
             secs (op_mix (make ()) ~n_records ~n_ops ~update_pct) ))
       series)

let fig7_left ?(n_records = 10_000) ?(n_ops = 20_000) () =
  let rewind variant () = logged_tree ~mb:256 (nfp variant) in
  let raw mode () =
    tree mode (Alloc.create (Arena.create ~size_bytes:(128 lsl 20) ()))
  in
  fig7 "fig7-left" ~n_records ~n_ops
    [
      ("REWIND", rewind Log.Simple);
      ("REWIND-Opt", rewind Log.Optimized);
      ("REWIND-Batch", rewind (Log.Batch 8));
      ("NVM", raw Btree.Direct_nvm);
      ("DRAM", raw Btree.Dram);
    ]

let fig7_right ?(n_records = 10_000) ?(n_ops = 20_000) () =
  let baseline profile () = paged (Paged_kv.create profile) in
  fig7 "fig7-right" ~n_records ~n_ops
    [
      ("BerkeleyDB", baseline Paged_kv.bdb_profile);
      ("Stasis", baseline Paged_kv.stasis_profile);
      ("REWIND-Batch", fun () -> logged_tree ~mb:256 batch8);
      ("Shore-MT", baseline Paged_kv.shore_profile);
    ]

(* ------------------------------------------------------------------ *)
(* Figure 8: rollback (left) and multi-transaction recovery (right)    *)
(* ------------------------------------------------------------------ *)

(* A mixed run of 8k..80k operations on each baseline and on a Batch(8)
   REWIND tree.  [baseline kv txn] and [rewind arena tm txn] finish the
   run's last transaction and return the step to time, in simulated
   seconds. *)
let fig8 bench ~n_records ~ops_per_txn ~baseline ~rewind =
  let time f =
    let s = Clock.start () in
    f ();
    secs (Clock.elapsed s)
  in
  rows bench ~x:"thousand-ops" (List.map (( * ) 8) (List.init 10 succ))
    (List.map
       (fun (name, profile) ->
         ( name,
           fun k ->
             let kv = Paged_kv.create profile in
             let txn, _ =
               mixed_run (paged kv) ~n_records ~n_ops:(k * 1000) ~ops_per_txn
             in
             time (baseline kv txn) ))
       baselines
    @ [
        ( "REWIND-Batch",
          fun k ->
            let arena, alloc, tm = logged ~mb:640 batch8 in
            let txn, _ =
              mixed_run (tree (Btree.Logged tm) alloc) ~n_records
                ~n_ops:(k * 1000) ~ops_per_txn
            in
            time (rewind arena tm txn) );
      ])

let fig8_left ?(n_records = 10_000) () =
  fig8 "fig8-left" ~n_records ~ops_per_txn:0
    ~baseline:(fun kv txn () -> Paged_kv.rollback kv txn)
    ~rewind:(fun _ tm txn () -> Tm.rollback tm txn)

let fig8_right ?(n_records = 10_000) () =
  fig8 "fig8-right" ~n_records ~ops_per_txn:200
    ~baseline:(fun kv txn ->
      Paged_kv.commit kv txn;
      Paged_kv.crash kv;
      fun () -> Paged_kv.recover kv)
    ~rewind:(fun arena tm txn ->
      Tm.commit tm txn;
      Arena.crash arena;
      let alloc = Alloc.recover arena in
      fun () -> ignore (Tm.attach ~cfg:batch8 alloc ~root_slot))

(* ------------------------------------------------------------------ *)
(* Figure 9: multithreaded B+-tree logging                              *)
(* ------------------------------------------------------------------ *)

(* REWIND: per-thread trees over one shared transaction manager (its log
   latch is the contention point).  Baselines: one shared store; writers
   take the partition lock, readers are lock-free. *)
let tree_fresh n_records t = (n_records * 2) + 1 + (t * 10_000_000)

let fig9 ?(ops_per_thread = 10_000) ?(n_records = 4_000) () =
  let run make ~stores ~fresh threads =
    secs
      (per_thread_run make ~stores ~threads ~ops_per_thread ~n_records
         ~lookups:true ~fresh)
  in
  let baseline profile =
    run (fun () -> paged (Paged_kv.create profile)) ~stores:1 ~fresh:(fun t ->
        1_000_000 * (t + 1))
  in
  let rewind partitions threads =
    let _, alloc, tm =
      logged ~mb:384 (Rewind.with_partitions partitions batch8)
    in
    run (fun () -> tree (Btree.Logged tm) alloc) ~stores:threads
      ~fresh:(tree_fresh n_records) threads
  in
  rows "fig9" ~x:"threads" (List.init 8 succ)
    (List.map (fun (name, profile) -> (name, baseline profile)) baselines
    @ [ ("REWIND-Batch", rewind 1); ("REWIND-Batch-P8", rewind 8) ])

(* ------------------------------------------------------------------ *)
(* Figure 10: memory-fence sensitivity                                  *)
(* ------------------------------------------------------------------ *)

let fig10 ?(n_records = 5_000) ?(n_ops = 10_000) () =
  (* Fifty operations per transaction: log-record groups then span many
     records between END records, which is what lets larger group sizes
     amortise the fence (Section 3.3's reordering across user writes). *)
  let run variant us =
    let config = Config.default () in
    config.Config.fence_ns <- us * 1000;
    let _, alloc, tm = logged ~config ~mb:192 (nfp variant) in
    let st = tree (Btree.Logged tm) alloc in
    let txn, s = mixed_run st ~n_records ~n_ops ~ops_per_txn:50 in
    st.commit txn;
    secs (Clock.elapsed s)
  in
  rows "fig10" ~x:"fence-latency (us)" (List.init 6 Fun.id)
    [
      ("Batch-32", run (Log.Batch 32));
      ("Batch-16", run (Log.Batch 16));
      ("Batch-8", run (Log.Batch 8));
      ("Optimized", run Log.Optimized);
    ]

(* ------------------------------------------------------------------ *)
(* Figure 11: TPC-C new-order throughput                                *)
(* ------------------------------------------------------------------ *)

let fig11 ?(txns_per_terminal = 300) ?(params = Rewind_tpcc.Datagen.small) () =
  let open Rewind_tpcc in
  labelled_rows fst "fig11" ~x:"configuration"
    Workload.
      [
        ("Simple NVM B+Trees", Nvm_naive);
        ("REWIND Opt. Data Structure D.Log", Rewind_opt_dlog);
        ("REWIND Opt. Data Structure", Rewind_opt);
        ("REWIND Naive Data Structure", Rewind_naive);
      ]
    [
      ( "ktpm",
        fun (_, config) ->
          (Workload.run ~txns_per_terminal ~params ~arena_mb:384 ~config ())
            .Workload.tpm /. 1000. );
    ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                      *)
(* ------------------------------------------------------------------ *)

(* Bucket size of the Optimized log: logging cost per record. *)
let ablation_bucket_size ?(n_ops = 20_000) () =
  rows "ablation-bucket" ~x:"bucket-capacity" [ 10; 50; 100; 500; 1000; 5000 ]
    [
      ( "1L-NFP",
        fun cap ->
          let cfg = { Rewind.config_1l_nfp with bucket_cap = cap } in
          let env = Workloads.make_env ~cfg () in
          float_of_int (Workloads.rewind_time env ~n_ops ~intensity:100)
          /. float_of_int n_ops );
    ]

(* Batch group size at two fence costs: the pure write-overhead side of
   Figure 10. *)
let ablation_group ?(n_ops = 20_000) () =
  let cost fence_ns group =
    let config = Config.default () in
    config.Config.fence_ns <- fence_ns;
    let _, alloc, tm = logged ~config ~mb:128 (nfp (Log.Batch group)) in
    let table = Ptable.create alloc ~slots:4096 in
    let s = Clock.start () in
    let txn = Tm.begin_txn tm in
    for i = 0 to n_ops - 1 do
      Ptable.set table tm txn (i mod 4096) (Int64.of_int i)
    done;
    Tm.commit tm txn;
    float_of_int (Clock.elapsed s) /. float_of_int n_ops
  in
  rows "ablation-group" ~x:"group-size" (List.init 7 (( lsl ) 1))
    [ ("fence=100ns", cost 100); ("fence=1us", cost 1000) ]

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
  rows "ablation-policy" ~x:"updates/txn" [ 1; 5; 10; 50; 100 ]
    [
      ("1L-FP", cost Rewind.config_1l_fp);
      ("1L-NFP", cost Rewind.config_1l_nfp);
    ]

(* ------------------------------------------------------------------ *)
(* Per-update cost of each named configuration                          *)
(* ------------------------------------------------------------------ *)

(* The raw counters reduced to per-update rates (NVM line writes and
   fences per update), the quantities the paper's cost model and the
   InCLL comparison are stated in.  The WAL rows time repeated writes
   inside one open transaction; the InCLL row runs the protocol at its
   natural cadence (one-write transactions, an epoch advance every 64),
   since its whole cost lives in the advance. *)
let costs ?(n = 1000) () =
  List.map
    (fun (name, _, mk) ->
      let cfg = mk () in
      let arena, _, tm = logged ~mb:64 cfg in
      let cell = Tm.alloc_cell tm in
      let measure f =
        let s = Clock.start () in
        let (), d = Stats.scoped (Arena.stats arena) f in
        (Clock.elapsed s, d)
      in
      let elapsed, d =
        if cfg.Tm.incll then
          measure (fun () ->
              for i = 1 to n do
                let txn = Tm.begin_txn tm in
                Tm.write tm txn ~addr:cell ~value:(Int64.of_int i);
                Tm.commit tm txn;
                if i mod 64 = 0 then Tm.advance_epoch tm
              done)
        else begin
          let txn = Tm.begin_txn tm in
          Tm.write tm txn ~addr:cell ~value:1L;
          measure (fun () ->
              for i = 1 to n do
                Tm.write tm txn ~addr:cell ~value:(Int64.of_int i)
              done)
        end
      in
      let per c = float_of_int c /. float_of_int n in
      let records = d.Stats.inline_records + d.Stats.full_records in
      {
        Bench_row.bench = "costs";
        labels = [ ("config", name) ];
        metrics =
          Bench_row.
            [
              info "sim_ns_per_update" (per elapsed);
              info "nvm_line_writes_per_op" (per d.Stats.nvm_writes);
              info "fences_per_op" (per d.Stats.fences);
              info_int "redundant_flushes" d.Stats.redundant_flushes;
              info_int "redundant_fences" d.Stats.redundant_fences;
              info "inline_hit"
                (if records = 0 then 0.
                 else
                   float_of_int d.Stats.inline_records /. float_of_int records);
            ];
      })
    Rewind.named_configs

(* ------------------------------------------------------------------ *)
(* The bench table                                                      *)
(* ------------------------------------------------------------------ *)

(* What a run shows beyond its rows: [Error why] fails `rewind bench`
   once every row is written. *)
type verdict = (unit, string) result

(* Every recovery ran clean under the persistency sanitizer. *)
let no_violations rows =
  match Bench_row.total "sanitizer_violations" rows with
  | 0. -> Ok ()
  | v -> Error (Fmt.str "%.0f persistency violation(s) during recovery" v)

(* The partition-scaling headline: 8 log partitions give at least this
   throughput over the single latch, at 8 writer threads. *)
let min_speedup = 2.0

let scales rows =
  let s = Scaling_bench.speedup rows in
  if s >= min_speedup then Ok ()
  else
    Error
      (Fmt.str
         "speedup (most vs fewest partitions) %.2fx below the required %.2fx" s
         min_speedup)

(* Every bench `rewind bench` runs, by name, with the title and y unit
   its header prints and the parameters EXPERIMENTS.md was generated
   with; [quick] picks the CI-sized ones, which CI gates. *)
type entry = {
  name : string;
  title : string;
  unit : string;
  run : quick:bool -> Bench_row.t list * verdict;
}

let table =
  let checked name title unit run = { name; title; unit; run } in
  let e name title unit run =
    checked name title unit (fun ~quick -> (run ~quick, Ok ()))
  in
  let sz quick full small = if quick then small else full in
  let response = "response time (s)" and dur = "duration (s)" in
  let own = "in each metric's name" in
  let store = Config.default () in
  [
    e "fig3-left" "Logging overhead vs update intensity"
      "slowdown vs non-recoverable" (fun ~quick ->
        fig3_left ~n_ops:(sz quick 10_000 2_000) ());
    e "fig3-right" "Logging overhead vs skip records"
      "slowdown vs non-recoverable" (fun ~quick ->
        fig3_right ~target_updates:(sz quick 60 20) ());
    e "fig4-left" "Single-transaction rollback vs skip records" "rollback (ms)"
      (fun ~quick -> fig4_left ~target_updates:(sz quick 60 20) ());
    e "fig4-right" "Recovery of one transaction vs skip records" "recovery (s)"
      (fun ~quick -> fig4_right ~target_updates:(sz quick 60 20) ());
    e "fig5" "Logging + commit/recovery vs fraction recovered" dur
      (fun ~quick ->
        fig5 ~n_txns:(sz quick 400 350) ~updates_each:(sz quick 10 4) ());
    e "fig6" "Checkpoint overhead vs checkpoint frequency"
      "% overhead vs no checkpoints" (fun ~quick ->
        fig6 ~n_records:(sz quick 120_000 30_000) ());
    e "fig7-left" "B+-tree logging: REWIND vs no recoverability" response
      (fun ~quick ->
        fig7_left ~n_records:(sz quick 10_000 2_000)
          ~n_ops:(sz quick 20_000 4_000) ());
    e "fig7-right" "B+-tree logging: REWIND vs Stasis, BerkeleyDB, Shore-MT"
      response (fun ~quick ->
        fig7_right ~n_records:(sz quick 10_000 2_000)
          ~n_ops:(sz quick 20_000 4_000) ());
    e "fig8-left" "B+-tree single-transaction rollback" dur (fun ~quick ->
        fig8_left ~n_records:(sz quick 10_000 2_000) ());
    e "fig8-right" "B+-tree multi-transaction recovery" dur (fun ~quick ->
        fig8_right ~n_records:(sz quick 10_000 2_000) ());
    e "fig9" "Multithreaded B+-tree logging" "processing time (s)"
      (fun ~quick ->
        fig9 ~ops_per_thread:(sz quick 10_000 2_000)
          ~n_records:(sz quick 4_000 1_000) ());
    e "fig10" "Memory-fence latency sensitivity" dur (fun ~quick ->
        fig10 ~n_records:(sz quick 5_000 1_000)
          ~n_ops:(sz quick 10_000 2_000) ());
    e "fig11" "TPC-C new-order throughput"
      "thousand transactions per simulated minute" (fun ~quick ->
        fig11 ~txns_per_terminal:(sz quick 300 60) ());
    checked "scaling" "Partitioned-log write scaling, 8 writer threads" own
      (fun ~quick:_ ->
        let rows = Scaling_bench.run () in
        (rows, scales rows));
    e "ablation-bucket" "Optimized-log bucket size" "ns/record" (fun ~quick:_ ->
        ablation_bucket_size ());
    e "ablation-group" "Batch group size vs fence cost" "ns/record"
      (fun ~quick:_ -> ablation_group ());
    e "ablation-policy" "Force + commit clearing vs no-force + checkpoints"
      "ns/txn" (fun ~quick -> ablation_policy ~n_txns:(sz quick 2_000 500) ());
    e "append" "inline vs full-record log appends" own (fun ~quick ->
        Append_bench.run ~n_ops:(sz quick 20_000 4_000) ());
    checked "recovery"
      "Recovery profile: per-phase simulated time and NVM attribution" own
      (fun ~quick ->
        let ops = sz quick 8_000 4_000 in
        let rows =
          Recovery_bench.run ~sizes:[ ops / 4; ops ] ~intervals:[ 0; 50; 200 ]
            ()
        in
        (rows, no_violations rows));
    checked "tpcc" "Open-loop TPC-C mix: 2 000 arrivals at 10 000 txn/s" own
      (fun ~quick ->
        let points = (if quick then [] else [ (1, 1); (4, 1) ]) @ [ (4, 4) ] in
        let runs =
          List.map
            (fun (warehouses, partitions) ->
              Tpcc_bench.run ~warehouses ~partitions ())
            points
        in
        ( List.concat_map fst runs,
          if List.for_all snd runs then Ok ()
          else Error "the consistency probes failed after the run" ));
    e "2pc" "Two-phase commit across independent REWIND nodes" own
      (fun ~quick:_ -> Twopc_bench.run ());
    e "costs"
      (Fmt.str
         "Per-update cost of one logged word write (non-recoverable NVM \
          store: %d ns; DRAM store: %d ns)"
         store.Config.nvm_write_ns store.Config.dram_write_ns)
      own (fun ~quick:_ -> costs ());
    e "micro" "Bechamel wall-clock micro-benchmarks" "wall ns/op"
      (fun ~quick:_ -> Micro.run ());
  ]

(* Print [e]'s header, run it and print its rows as a table; return the
   rows and the verdict. *)
let run ~quick e =
  Fmt.pr "@.== %s: %s ==@.# y = %s@." e.name e.title e.unit;
  let t0 = Unix.gettimeofday () in
  let ((rows, _) as result) = e.run ~quick in
  Bench_row.pp_table Fmt.stdout rows;
  Fmt.pr "# %s completed in %.1fs wall@." e.name (Unix.gettimeofday () -. t0);
  Gc.compact ();
  result
