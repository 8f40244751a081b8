(* Command-line driver for the REWIND reproduction.

     rewind figure fig7-left [--quick]     regenerate one figure
     rewind crash-demo [--config 1l-nfp]   crash/recovery walkthrough
     rewind tpcc [--json F]                open-loop TPC-C mix: tpmC, latency
     rewind costs                          per-update cost of each config
     rewind check [--enumerate|--races]    persistency sanitizer / race detector
     rewind profile [--json F --prom F]    per-phase recovery profile
     rewind scaling [--json F]             partitioned-log throughput
     rewind benchdiff --baseline F --current F   regression gate
     rewind 2pc [--enumerate|--json F]     distributed commit
     rewind autotune                       configuration advisor

   The bench subcommands print their rows as a table and write them with
   {!Bench_row.write_rows}. *)

open Cmdliner
open Rewind_nvm
open Rewind_benchlib
module Harness = Rewind_analysis.Crash_harness

(* -- shared ------------------------------------------------------------- *)

(* The accepted configuration names, their help text and constructors all
   come from the one list in {!Rewind.named_configs}. *)
let config_names =
  List.map (fun (n, _, mk) -> (n, mk)) Rewind.named_configs

let config_name_list = String.concat ", " Rewind.config_names

(* A "-pN" suffix shards any named configuration's log into N partitions:
   "batch-p4" is the batch config with 4 log partitions. *)
let partition_suffix s =
  let l = String.length s in
  match String.rindex_opt s '-' with
  | Some i when i + 2 < l && s.[i + 1] = 'p' -> (
      match int_of_string_opt (String.sub s (i + 2) (l - i - 2)) with
      | Some n when n >= 1 -> Some (String.sub s 0 i, n)
      | _ -> None)
  | _ -> None

let config_of_string s =
  let base, parts =
    match partition_suffix s with
    | Some (base, n) -> (base, n)
    | None -> (s, 1)
  in
  match List.assoc_opt base config_names with
  | Some c ->
      let c = c () in
      if c.Rewind.Tm.incll && parts > 1 then
        Error
          (`Msg
             "incll is epoch-granular, not log-partitioned: the -pN suffix \
              does not apply")
      else Ok (Rewind.with_partitions parts c)
  | None ->
      Error
        (`Msg
           (Fmt.str
              "unknown configuration %S (expected one of: %s; any name except \
               incll also takes a -pN partition suffix, e.g. batch-p4 or \
               lockfree-p8)"
              s config_name_list))

let config_conv =
  Arg.conv
    (config_of_string, fun ppf c -> Rewind.Tm.pp_config ppf c)

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use smaller (CI-sized) parameters.")

(* -- figure ------------------------------------------------------------- *)

let figure_names =
  [
    "fig3-left"; "fig3-right"; "fig4-left"; "fig4-right"; "fig5"; "fig6";
    "fig7-left"; "fig7-right"; "fig8-left"; "fig8-right"; "fig9"; "fig10";
    "fig11"; "scaling"; "ablation-bucket"; "ablation-group";
    "ablation-policy"; "ablation-lockfree";
  ]

let run_figure quick name =
  let s v q = if quick then q else v in
  match name with
  | "fig3-left" -> Series.print (Figures.fig3_left ~n_ops:(s 10_000 2_000) ())
  | "fig3-right" -> Series.print (Figures.fig3_right ~target_updates:(s 60 20) ())
  | "fig4-left" -> Series.print (Figures.fig4_left ~target_updates:(s 60 20) ())
  | "fig4-right" -> Series.print (Figures.fig4_right ~target_updates:(s 60 20) ())
  | "fig5" -> Series.print (Figures.fig5 ~n_txns:(s 400 350) ~updates_each:(s 10 4) ())
  | "fig6" -> Series.print (Figures.fig6 ~n_records:(s 120_000 30_000) ())
  | "fig7-left" ->
      Series.print (Figures.fig7_left ~n_records:(s 10_000 2_000) ~n_ops:(s 20_000 4_000) ())
  | "fig7-right" ->
      Series.print (Figures.fig7_right ~n_records:(s 10_000 2_000) ~n_ops:(s 20_000 4_000) ())
  | "fig8-left" -> Series.print (Figures.fig8_left ~n_records:(s 10_000 2_000) ())
  | "fig8-right" -> Series.print (Figures.fig8_right ~n_records:(s 10_000 2_000) ())
  | "fig9" ->
      Series.print (Figures.fig9 ~ops_per_thread:(s 10_000 2_000) ~n_records:(s 4_000 1_000) ())
  | "fig10" ->
      Series.print (Figures.fig10 ~n_records:(s 5_000 1_000) ~n_ops:(s 10_000 2_000) ())
  | "fig11" ->
      Series.print_bars ~id:"fig11" ~title:"TPC-C new-order throughput"
        ~ylabel:"thousand transactions per simulated minute"
        (Figures.fig11 ~txns_per_terminal:(s 300 60) ())
  | "scaling" -> Series.print (Figures.scaling ~txns_per_thread:(s 400 100) ())
  | "ablation-bucket" -> Series.print (Figures.ablation_bucket_size ())
  | "ablation-group" -> Series.print (Figures.ablation_group ())
  | "ablation-policy" -> Series.print (Figures.ablation_policy ())
  | "ablation-lockfree" -> Series.print (Figures.ablation_lockfree ())
  | other -> Fmt.epr "unknown figure %S@." other

let figure_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun n -> (n, n)) figure_names))) None
      & info [] ~docv:"FIGURE" ~doc:"Figure id, e.g. fig7-left.")
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's figures")
    Term.(const (fun q n -> run_figure q n) $ quick $ name_arg)

(* -- crash-demo --------------------------------------------------------- *)

(* One crash at a user-chosen persistence event: the harness's
   [crash_once], narrated.  A crash point past the workload wraps around
   it, so the demo always crashes. *)
let run_crash_demo cfg crash_after =
  Fmt.pr "configuration: %a@." Rewind.Tm.pp_config cfg;
  Fmt.pr "running transactions with a crash after %d persistence events...@."
    crash_after;
  let last committed = match !committed with t :: _ -> t | [] -> 0 in
  let scenario =
    {
      Harness.setup =
        (fun () ->
          let arena = Arena.create ~size_bytes:(64 lsl 20) () in
          let alloc = Alloc.create arena in
          let tm = Rewind.Tm.create ~cfg alloc ~root_slot:2 in
          (arena, tm, Array.init 8 (fun _ -> Alloc.alloc alloc 8), ref []));
      arenas = (fun (arena, _, _, _) -> [| arena |]);
      window =
        (fun (_, tm, cells, committed) ->
          try
            for tno = 1 to 1_000 do
              let txn = Rewind.Tm.begin_txn tm in
              for i = 0 to 7 do
                Rewind.Tm.write tm txn ~addr:cells.(i)
                  ~value:(Int64.of_int ((tno * 10) + i))
              done;
              Rewind.Tm.commit tm txn;
              committed := tno :: !committed
            done
          with Arena.Crash ->
            Fmt.pr "*** crash after transaction %d committed ***@."
              (last committed));
      recover =
        (fun (_, _, cells, _) arena ->
          let alloc = Alloc.recover arena in
          let span = Clock.start () in
          let _tm = Rewind.Tm.attach ~cfg alloc ~root_slot:2 in
          Fmt.pr "recovery took %a (simulated)@." Clock.pp_ns (Clock.elapsed span);
          Array.map (Arena.read arena) cells);
      check =
        (fun (_, _, _, committed) got ->
          let last = last committed in
          let ok = ref true in
          Array.iteri
            (fun i v ->
              let expect = Int64.of_int ((last * 10) + i) in
              if v <> expect && last > 0 then ok := false;
              Fmt.pr "  cell %d = %Ld (expected %Ld)@." i v expect)
            got;
          if !ok then None else Some "MISMATCH");
    }
  in
  match Harness.crash_once scenario ~after:crash_after with
  | _ -> Fmt.pr "state matches the last committed transaction@."
  | exception Harness.Failed _ -> Fmt.pr "state MISMATCH@."

let crash_demo_cmd =
  let cfg =
    Arg.(
      value
      & opt config_conv Rewind.config_1l_nfp
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:
            (Fmt.str
               "REWIND configuration: %s; a -pN suffix (e.g. batch-p4) shards \
                the log into N partitions."
               config_name_list))
  in
  let after =
    Arg.(
      value & opt int 5_000
      & info [ "crash-after" ] ~docv:"N"
          ~doc:
            "Crash after N persistence events (taken modulo the workload's \
             event count).")
  in
  let partitions =
    Arg.(
      value & opt int 0
      & info [ "partitions" ] ~docv:"N"
          ~doc:"Override the configuration's log partition count.")
  in
  Cmd.v
    (Cmd.info "crash-demo" ~doc:"Run transactions, crash, recover, verify")
    Term.(
      const (fun cfg parts after ->
          let cfg = if parts > 0 then Rewind.with_partitions parts cfg else cfg in
          run_crash_demo cfg after)
      $ cfg $ partitions $ after)

(* -- tpcc --------------------------------------------------------------- *)

(* Open-loop five-transaction TPC-C: arrivals at --rate transactions per
   simulated second, home-warehouse log sharding, latency percentiles
   from the log2 histogram.  (The closed-loop Figure 11 four-way
   comparison lives under `rewind figure fig11`.)  Exits nonzero if the
   database fails the mixed-workload consistency probes afterwards. *)
let run_tpcc warehouses partitions rate txns json =
  let rows, consistent =
    Tpcc_bench.run ~warehouses ~partitions ~rate ~arrivals:txns ()
  in
  Fmt.pr
    "open-loop TPC-C: %d warehouses, %d log partitions, %.0f txn/s offered@.%a"
    warehouses partitions rate Bench_row.pp_table rows;
  Bench_row.write_rows ?json rows;
  if not consistent then begin
    Fmt.epr "@.consistency probes FAILED after the run@.";
    Stdlib.exit 1
  end

let tpcc_cmd =
  let warehouses =
    Arg.(
      value & opt int 4
      & info [ "warehouses" ] ~docv:"W" ~doc:"Warehouses (home log shards).")
  in
  let partitions =
    Arg.(
      value & opt int 4
      & info [ "partitions" ] ~docv:"N" ~doc:"Log partitions.")
  in
  let rate =
    Arg.(
      value & opt float 10_000.
      & info [ "rate" ] ~docv:"R"
          ~doc:"Offered load: arrivals per simulated second.")
  in
  let txns =
    Arg.(
      value & opt int 2_000
      & info [ "txns" ] ~docv:"N" ~doc:"Total transaction arrivals.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write machine-readable results (BENCH_tpcc.json).")
  in
  Cmd.v
    (Cmd.info "tpcc"
       ~doc:
         "Open-loop five-transaction TPC-C with home-warehouse log \
          sharding: tpmC and latency percentiles")
    Term.(const run_tpcc $ warehouses $ partitions $ rate $ txns $ json)

(* -- costs -------------------------------------------------------------- *)

(* Per-update cost, with the raw counters reduced to derived per-op rates
   (NVM line writes per update, fences per update) — the quantities the
   paper's cost model and the InCLL comparison are stated in.  The WAL
   rows measure repeated writes inside one open transaction; the InCLL
   row runs the protocol at its natural cadence (one-write transactions,
   an epoch advance every 64), since its whole cost lives in the advance. *)
let run_costs () =
  let n = 1000 in
  Fmt.pr "per-update simulated cost of one logged word write (ns):@.@.";
  List.iter
    (fun (name, cfg) ->
      let arena = Arena.create ~size_bytes:(64 lsl 20) () in
      let alloc = Alloc.create arena in
      let tm = Rewind.Tm.create ~cfg alloc ~root_slot:2 in
      let cell = Rewind.Tm.alloc_cell tm in
      let elapsed, d =
        if cfg.Rewind.Tm.incll then begin
          let s = Clock.start () in
          let (), d =
            Stats.scoped (Arena.stats arena) (fun () ->
                for i = 1 to n do
                  let txn = Rewind.Tm.begin_txn tm in
                  Rewind.Tm.write tm txn ~addr:cell ~value:(Int64.of_int i);
                  Rewind.Tm.commit tm txn;
                  if i mod 64 = 0 then Rewind.Tm.advance_epoch tm
                done)
          in
          (Clock.elapsed s, d)
        end
        else begin
          let txn = Rewind.Tm.begin_txn tm in
          Rewind.Tm.write tm txn ~addr:cell ~value:1L;
          let s = Clock.start () in
          let (), d =
            Stats.scoped (Arena.stats arena) (fun () ->
                for i = 1 to n do
                  Rewind.Tm.write tm txn ~addr:cell ~value:(Int64.of_int i)
                done)
          in
          (Clock.elapsed s, d)
        end
      in
      let per c = float_of_int c /. float_of_int n in
      let logged = d.Stats.inline_records + d.Stats.full_records in
      let inline_pct =
        if logged = 0 then 0.
        else 100. *. float_of_int d.Stats.inline_records /. float_of_int logged
      in
      Fmt.pr
        "  %-22s %6d ns/update  %5.2f lines/op  %5.2f fences/op  (redundant \
         flushes %d, fences %d, inline hit %.0f%%)@."
        name (elapsed / n)
        (per d.Stats.nvm_writes)
        (per d.Stats.fences)
        d.Stats.redundant_flushes d.Stats.redundant_fences inline_pct)
    [
      ("1L-NFP (Optimized)", Rewind.config_1l_nfp);
      ("1L-FP (Optimized)", Rewind.config_1l_fp);
      ("1L-NFP (Simple)", Rewind.config_simple);
      ("1L-NFP (Batch 8)", Rewind.config_batch ());
      ("2L-NFP", Rewind.config_2l_nfp);
      ("2L-FP", Rewind.config_2l_fp);
      ("InCLL (advance/64)", Rewind.config_incll);
    ];
  Fmt.pr "@.non-recoverable NVM store: %d ns; DRAM store: %d ns@."
    (Config.default ()).Config.nvm_write_ns
    (Config.default ()).Config.dram_write_ns

let costs_cmd =
  Cmd.v
    (Cmd.info "costs" ~doc:"Per-update cost of each REWIND configuration")
    Term.(const run_costs $ const ())

(* -- check -------------------------------------------------------------- *)

module San = Rewind_analysis.Sanitizer
module Enum = Rewind_analysis.Enumerator
module Racecheck = Rewind_analysis.Racecheck

(* The persistency sanitizer over one crash of each configuration's tour
   (see {!Crash_scenarios.sanitizer_tour}): the report covers the whole
   run, recovery included. *)
let print_report name san =
  let r = San.report san in
  Fmt.pr "%-12s %a@." name San.pp_report r;
  List.iter (fun v -> Fmt.pr "    %a@." San.pp_violation v) (San.violations san);
  r.San.violation_count

let check_one_config name cfg =
  let scenario, san = Crash_scenarios.sanitizer_tour cfg in
  ignore (Harness.crash_once scenario ~after:5);
  print_report name (san ())

let check_lfset () =
  print_report "lfset" (Harness.crash_once (Crash_scenarios.lfset_tour ()) ~after:3)

(* Exhaustive crash-state enumeration of small traces: every
   fence-boundary subset of dirty lines must recover to an allowed
   state.  The Simple log (record per list node) and the Optimized log's
   inline fast path, where the last slot pair straddles a cacheline so
   the enumeration includes torn pairs recovery must truncate; InCLL and
   the lock-free set on the finer at-every-event grid, since both are
   nearly fence-free. *)
let check_enumerate ?(shard = fun c -> c) () =
  let enumerate ?at_every_event name scenario verdict =
    Fmt.pr "enumerator[%s]: %a — %s@." name Enum.pp_stats
      (Harness.every_fence_subset ?at_every_event scenario)
      verdict
  in
  let legal = "all crash states recover legally" in
  enumerate "simple"
    (Crash_scenarios.wal_txn
       (shard { Rewind.config_simple with Rewind.Tm.policy = Rewind.Tm.No_force }))
    legal;
  enumerate "optimized-inline"
    (Crash_scenarios.wal_txn (shard Rewind.config_1l_nfp))
    legal;
  enumerate ~at_every_event:true "incll" (Crash_scenarios.incll_epochs ()) legal;
  enumerate ~at_every_event:true "lfset"
    (Crash_scenarios.lfset_prefix [| `I 5; `I 1; `I 9; `R 5; `I 3; `R 1 |])
    "every crash state is a linearizable prefix"

(* Happens-before race detection over the standard concurrent workloads:
   the PR-5 multi-writer scaling workload, the same workload with a
   concurrent cache-consistent checkpointer, and the TPC-C new-order
   driver in the naive-REWIND (coarse-lock) configuration.  Any report —
   data race or persist race — fails the run. *)
let run_races config_filter partitions threads =
  let partitions = max 1 partitions in
  let selected =
    match config_filter with
    | None -> Race_workloads.configs
    | Some "lfset" -> [] (* no WAL configuration applies to the set *)
    | Some n -> (
        match List.assoc_opt n Race_workloads.configs with
        | Some c -> [ (n, c) ]
        | None -> [ (n, (List.assoc n config_names) ()) ])
  in
  Fmt.pr
    "happens-before race detector — vector clocks over the trace stream@.";
  Fmt.pr "(%d writer fiber(s), %d log partition(s))@.@." threads partitions;
  let total = ref 0 in
  let show name rc =
    let races = Racecheck.races rc in
    total := !total + List.length races;
    Fmt.pr "  %-24s %a@." name Racecheck.pp_report (Racecheck.report rc);
    List.iter (fun r -> Fmt.pr "    %a@." Racecheck.pp_race r) races
  in
  List.iter
    (fun (name, cfg) ->
      show
        (name ^ " multi-writer")
        (Race_workloads.multi_writer ~threads ~partitions ~cfg ());
      show
        (name ^ " checkpoint")
        (Race_workloads.concurrent_checkpoint ~threads ~partitions ~cfg ()))
    selected;
  (if config_filter <> Some "lfset" then begin
     show "tpcc-naive" (Race_workloads.tpcc ~terminals:(max 2 threads) ());
     (* the five-transaction mix with home-warehouse pinning, its log
        sharded over the requested partition count *)
     show
       (Fmt.str "tpcc-mix-p%d" partitions)
       (Race_workloads.tpcc_mix ~partitions ())
   end);
  (if config_filter = None || config_filter = Some "lfset" then
     show "lockfree-set" (Race_workloads.lockfree_set ~threads ()));
  if !total > 0 then begin
    Fmt.epr "@.%d race report(s)@." !total;
    Stdlib.exit 1
  end
  else Fmt.pr "@.no races detected@."

let run_check config_filter enumerate partitions races threads =
  if races then run_races config_filter partitions threads
  else begin
  let shard cfg =
    if partitions > 0 then Rewind.with_partitions partitions cfg else cfg
  in
  let selected =
    match config_filter with
    | None -> config_names
    | Some n -> List.filter (fun (name, _) -> name = n) config_names
  in
  Fmt.pr "persistency sanitizer — shadow hardware model over each configuration";
  if partitions > 0 then Fmt.pr " (%d log partitions)" partitions;
  Fmt.pr "@.@.";
  let total =
    List.fold_left
      (fun acc (name, cfg) -> acc + check_one_config name (shard (cfg ())))
      0 selected
  in
  (* The lock-free set is not a WAL configuration but has its own
     protocol row in the sweep ("lfset" alone selects just it). *)
  let total =
    if config_filter = None || config_filter = Some "lfset" then
      total + check_lfset ()
    else total
  in
  (if enumerate then check_enumerate ~shard ());
  if total > 0 then begin
    Fmt.epr "@.%d persistency violation(s) detected@." total;
    Stdlib.exit 1
  end
  else Fmt.pr "@.no persistency violations@."
  end

let check_cmd =
  let cfg =
    Arg.(
      value
      & opt
          (some
             (enum
                (("lfset", "lfset")
                :: List.map (fun (n, _) -> (n, n)) config_names)))
          None
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:
            "Check a single configuration (default: all).  The special \
             name 'lfset' selects the lock-free durable set workload.")
  in
  let enumerate =
    Arg.(
      value & flag
      & info [ "enumerate" ]
          ~doc:"Also exhaustively enumerate crash states of a small trace.")
  in
  let partitions =
    Arg.(
      value & opt int 0
      & info [ "partitions" ] ~docv:"N"
          ~doc:"Shard each checked configuration's log into N partitions.")
  in
  let races =
    Arg.(
      value & flag
      & info [ "races" ]
          ~doc:
            "Run the happens-before race detector over the multi-writer, \
             concurrent-checkpoint and TPC-C workloads instead of the \
             persistency sanitizer.")
  in
  let threads =
    Arg.(
      value & opt int 4
      & info [ "threads" ] ~docv:"T"
          ~doc:"Concurrent writer fibers for the race-detector workloads.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the persistency sanitizer (or, with --races, the \
          happens-before race detector) over each configuration")
    Term.(const run_check $ cfg $ enumerate $ partitions $ races $ threads)

(* -- profile ------------------------------------------------------------- *)

module Rbench = Rewind_benchlib.Recovery_bench

(* Crash-and-reattach profiling across the six configurations and two
   four-partition ones: per-phase recovery timings with NVM attribution,
   plus a sanitizer pass over each recovery.  Emits a human table and, on request, BENCH_recovery.json and
   a Prometheus-style text file.  Exits nonzero if any recovery raised
   persistency violations — CI runs this on every push. *)
let run_profile ops json prom =
  let sizes = [ ops / 4; ops ] in
  let intervals = [ 0; 50 ] in
  Fmt.pr
    "recovery profile — per-phase simulated time and NVM attribution@.@.";
  let rows = Rbench.run ~sizes ~intervals () in
  Fmt.pr "%a" Bench_row.pp_table rows;
  Bench_row.write_rows ?json ?prom rows;
  let violations = Bench_row.total "sanitizer_violations" rows in
  if violations > 0. then begin
    Fmt.epr "@.%.0f persistency violation(s) during recovery@." violations;
    Stdlib.exit 1
  end
  else Fmt.pr "@.no persistency violations during recovery@."

let profile_cmd =
  let ops =
    Arg.(
      value & opt int 8_000
      & info [ "ops" ] ~docv:"N"
          ~doc:"Logged updates before the crash (a quarter-size point is \
                also run).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write machine-readable results (BENCH_recovery.json).")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"PATH"
          ~doc:"Write Prometheus text-exposition metrics.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile crash recovery per phase across all configurations")
    Term.(const run_profile $ ops $ json $ prom)

(* -- scaling -------------------------------------------------------------- *)

(* Partition-scaling bench: throughput at a fixed thread count over
   1..N log partitions.  Emits BENCH_scaling.json for the CI gate and
   fails if the largest partition count does not reach --min-speedup over
   the single-partition latch. *)
let run_scaling threads txns json min_speedup =
  let rows = Scaling_bench.run ~threads ~txns_per_thread:txns () in
  Fmt.pr "partitioned-log scaling — %d simulated threads@.@.%a" threads
    Bench_row.pp_table rows;
  let speedup = Scaling_bench.speedup rows in
  Fmt.pr "@.speedup (most vs fewest partitions): %.2fx@." speedup;
  Bench_row.write_rows ?json rows;
  if speedup < min_speedup then begin
    Fmt.epr "@.speedup %.2fx below the required %.2fx@." speedup min_speedup;
    Stdlib.exit 1
  end

let scaling_cmd =
  let threads =
    Arg.(
      value & opt int 8
      & info [ "threads" ] ~docv:"N" ~doc:"Simulated writer threads.")
  in
  let txns =
    Arg.(
      value & opt int 400
      & info [ "txns" ] ~docv:"N" ~doc:"Transactions per thread.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write machine-readable results (BENCH_scaling.json).")
  in
  let min_speedup =
    Arg.(
      value & opt float 0.
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:"Fail unless max-partitions throughput is at least X times \
                the single-partition throughput.")
  in
  Cmd.v
    (Cmd.info "scaling"
       ~doc:"Throughput of the partitioned log under concurrent writers")
    Term.(const run_scaling $ threads $ txns $ json $ min_speedup)

(* -- benchdiff ------------------------------------------------------------ *)

(* The benchmark-regression gate: every metric in the committed baselines
   is simulated (deterministic, machine-independent), so CI compares the
   fresh BENCH_*.json artifacts against them and fails the build on any
   cost metric worse than the tolerance. *)
(* Exit codes: 0 = within tolerance, 1 = benchmark regression, 2 = the
   gate could not run (file missing/unreadable/not JSON) — so CI can tell
   "the numbers got worse" from "the comparison never happened". *)
let run_benchdiff baseline current tolerance =
  match
    Benchdiff.compare_files ~tolerance ~baseline ~current
  with
  | Error msg ->
      Fmt.epr "benchdiff: %s@." msg;
      Stdlib.exit 2
  | Ok outcome ->
      Fmt.pr "comparing %s against baseline %s (tolerance %.0f%%)@." current
        baseline (100. *. tolerance);
      Fmt.pr "%a" Benchdiff.pp_outcome outcome;
      (* Gated metrics the baseline doesn't know about are ungated until
         the baseline is regenerated — warn loudly rather than pass them
         in silence. *)
      List.iter
        (fun m ->
          Fmt.epr
            "benchdiff: WARNING: %s is gated but absent from the baseline — \
             regenerate and commit %s to gate it@."
            m baseline)
        outcome.Benchdiff.new_metrics;
      if not (Benchdiff.passed outcome) then Stdlib.exit 1

let benchdiff_cmd =
  (* plain strings, not Arg.file: missing paths must reach our own
     diagnostic and exit code, not cmdliner's usage error *)
  let baseline =
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE" ~doc:"Committed baseline JSON.")
  in
  let current =
    Arg.(
      required
      & opt (some string) None
      & info [ "current" ] ~docv:"FILE" ~doc:"Freshly produced benchmark JSON.")
  in
  let tolerance =
    Arg.(
      value & opt float 0.15
      & info [ "tolerance" ] ~docv:"FRAC"
          ~doc:
            "Allowed relative regression per metric (default 0.15).  A \
             baseline metric's own tolerance field overrides it for that \
             one metric.")
  in
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:"Compare benchmark JSON against a committed baseline; exit \
             nonzero on regression")
    Term.(const run_benchdiff $ baseline $ current $ tolerance)

(* -- 2pc ------------------------------------------------------------------ *)

module Twopc = Rewind_dist.Twopc
module Tbench = Rewind_benchlib.Twopc_bench

(* Exit codes: 0 = every crash state recovered to a globally consistent
   outcome; 1 = the sweep found an unresolved in-doubt transaction or a
   split commit. *)
let run_2pc_enumerate nodes txns =
  match Tbench.enumerate ~nodes ~txns () with
  | r ->
      Fmt.pr "2pc enumerator[%d nodes + coordinator]: %a@." nodes
        Tbench.pp_enum_report r
  | exception Harness.Failed { arena = node; event; detail } ->
      Fmt.epr
        "2pc enumerator: INCONSISTENT recovery — %s crashed at persistence \
         event %d: %s@."
        (if node < 0 then "no component (crash-free run)"
         else if node = 0 then "the coordinator"
         else Printf.sprintf "participant %d" (node - 1))
        event detail;
      Stdlib.exit 1

(* Walkthrough: a lossy run with the coordinator dying at the worst
   moment (decision durable, no COMMIT sent), then a cluster-wide power
   failure, then log-only recovery. *)
let run_2pc_demo nodes txns drop =
  Fmt.pr
    "distributed commit: %d participants + 1 coordinator, %d transactions%s@.@."
    nodes txns
    (if drop > 0 then Printf.sprintf ", dropping ~1 message in %d" drop else "");
  let w =
    Tbench.make_world ~nodes ~txns ~drop_1_in:drop ~seed:3
      ~chaos_at:(Some (txns - 1)) ()
  in
  Tbench.run_workload w;
  let t = w.Tbench.cluster in
  let s = Twopc.stats t in
  Fmt.pr
    "outcomes: %d committed, %d aborted, %d unknown   (%d messages, %d \
     dropped, %d retries)@."
    s.Twopc.committed s.Twopc.aborted s.Twopc.unknown s.Twopc.msgs_sent
    s.Twopc.msgs_dropped s.Twopc.retries;
  Fmt.pr
    "coordinator power-failed right after durably deciding transaction %d — \
     before sending any COMMIT; %d participant transaction(s) left in doubt@."
    (txns - 1)
    (Twopc.in_doubt_total t);
  Fmt.pr "power-failing every participant too...@.";
  for i = 0 to nodes - 1 do
    if Twopc.node_up t i then Twopc.crash_node t i
  done;
  Fmt.pr "recovering the whole cluster from its logs alone...@.";
  match Tbench.check_world w with
  | None ->
      Fmt.pr
        "recovery: every in-doubt transaction resolved from the decision \
         log, all outcomes globally all-or-nothing, 0 still in doubt@."
  | Some detail ->
      Fmt.epr "recovery: INCONSISTENT — %s@." detail;
      Stdlib.exit 1

let run_2pc nodes txns drop enumerate json =
  (match json with
  | None -> ()
  | Some _ ->
      let rows = Tbench.run ~txns:(max txns 200) () in
      Fmt.pr "%a" Bench_row.pp_table rows;
      Bench_row.write_rows ?json rows);
  if enumerate then run_2pc_enumerate nodes (min txns 8)
  else if json = None then run_2pc_demo nodes txns drop

let twopc_cmd =
  let nodes =
    Arg.(
      value & opt int 3
      & info [ "nodes" ] ~docv:"N" ~doc:"Participant nodes (each its own NVM arena).")
  in
  let txns =
    Arg.(
      value & opt int 8
      & info [ "txns" ] ~docv:"N" ~doc:"Distributed transactions to run.")
  in
  let drop =
    Arg.(
      value & opt int 6
      & info [ "drop" ] ~docv:"N"
          ~doc:"Drop roughly one simulated message in N (0 = lossless).")
  in
  let enumerate =
    Arg.(
      value & flag
      & info [ "enumerate" ]
          ~doc:"Crash every component at every persistence event (plus the \
                coordinator after each decision) and prove recovery resolves \
                every in-doubt transaction consistently; exit nonzero \
                otherwise.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Run the distributed-commit benchmark and write BENCH_2pc.json.")
  in
  Cmd.v
    (Cmd.info "2pc"
       ~doc:"Two-phase commit across independent REWIND nodes: demo, \
             crash-everywhere enumeration, benchmark")
    Term.(const run_2pc $ nodes $ txns $ drop $ enumerate $ json)

(* -- autotune ------------------------------------------------------------ *)

(* Run a synthetic workload at the requested interleaving/rollback profile
   and print what the advisor would configure. *)
let run_autotune interleave rollback_pct updates small_pct =
  let tuner = Rewind.Autotune.create () in
  let group = max 1 (interleave + 1) in
  let n_txns = max group 200 in
  let live = Array.init group (fun i ->
      Rewind.Autotune.on_begin tuner i;
      i)
  in
  let next = ref group in
  let done_updates = Array.make (Array.length live + n_txns + 1) 0 in
  let settled = ref 0 in
  while !settled < n_txns do
    Array.iteri
      (fun slot txn ->
        if !settled < n_txns then begin
          (* deterministic small-write mix at the requested percentage *)
          let word_sized = done_updates.(txn) * small_pct mod 100 < small_pct in
          Rewind.Autotune.on_write ~word_sized tuner txn;
          done_updates.(txn) <- done_updates.(txn) + 1;
          if done_updates.(txn) >= updates then begin
            (if txn * 100 mod (n_txns * 100) < rollback_pct * n_txns then
               Rewind.Autotune.on_rollback tuner txn
             else Rewind.Autotune.on_commit tuner txn);
            incr settled;
            let fresh = !next in
            incr next;
            Rewind.Autotune.on_begin tuner fresh;
            live.(slot) <- fresh
          end
        end)
      live
  done;
  Fmt.pr "%a@." Rewind.Autotune.pp tuner

let autotune_cmd =
  let interleave =
    Arg.(value & opt int 50
         & info [ "interleave" ] ~docv:"N" ~doc:"Concurrent transactions (skip records).")
  in
  let rollback =
    Arg.(value & opt int 5
         & info [ "rollback" ] ~docv:"PCT" ~doc:"Percentage of transactions rolled back.")
  in
  let updates =
    Arg.(value & opt int 20
         & info [ "updates" ] ~docv:"N" ~doc:"Updates per transaction.")
  in
  let small =
    Arg.(value & opt int 0
         & info [ "small-writes" ] ~docv:"PCT"
             ~doc:"Percentage of updates that are word-sized (inline-eligible).")
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:"Simulate a workload profile and print the advisor's recommendation")
    Term.(const run_autotune $ interleave $ rollback $ updates $ small)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "rewind" ~version:"1.0.0"
             ~doc:"REWIND: recovery write-ahead system for in-memory non-volatile data structures")
          [ figure_cmd; crash_demo_cmd; tpcc_cmd; costs_cmd; check_cmd;
            profile_cmd; scaling_cmd; benchdiff_cmd; twopc_cmd; autotune_cmd ]))
