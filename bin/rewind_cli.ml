(* Command-line driver for the REWIND reproduction.

     rewind bench [--quick] [--json F] [--prom F] [NAME...]
                                           the bench table: figures, gates
     rewind crash-demo [--config 1l-nfp]   crash/recovery walkthrough
     rewind check [--enumerate|--races]    persistency sanitizer / race detector
     rewind benchdiff --baseline F --current F   regression gate
     rewind 2pc [--enumerate]              distributed commit

   `bench` runs the entries of {!Figures.table}: it prints each entry's
   rows as a table and writes them all with {!Bench_row.write_rows}. *)

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
               2l-fp-p8)"
              s config_name_list))

let config_conv =
  Arg.conv
    (config_of_string, fun ppf c -> Rewind.Tm.pp_config ppf c)

(* -- bench --------------------------------------------------------------- *)

(* Every named entry of the bench table (all of them without a name), in
   table order.  Each failed verdict is reported, and exits 1, only after
   the rows are written. *)
let run_bench quick json prom names =
  let runs =
    List.filter_map
      (fun (e : Figures.entry) ->
        if names = [] || List.mem e.name names then
          Some (e.name, Figures.run ~quick e)
        else None)
      Figures.table
  in
  Bench_row.write_rows ?json ?prom
    (List.concat_map (fun (_, (rows, _)) -> rows) runs);
  let failed =
    List.filter_map
      (fun (name, (_, verdict)) ->
        match verdict with Ok () -> None | Error why -> Some (name, why))
      runs
  in
  List.iter (fun (name, why) -> Fmt.epr "%s FAILED: %s@." name why) failed;
  if failed <> [] then exit 1

let bench_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Use the smaller parameters CI runs and gates.")
  in
  let path name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"PATH" ~doc)
  in
  let names =
    let name (e : Figures.entry) = (e.name, e.name) in
    Arg.(
      value
      & pos_all (enum (List.map name Figures.table)) []
      & info [] ~docv:"NAME" ~doc:"Run only these entries (default: all).")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the bench table: the paper's figures, the ablations and the \
          gated benches (append, recovery, scaling, tpcc, 2pc)")
    Term.(
      const run_bench $ quick
      $ path "json" "Write every row as bench-row JSON."
      $ path "prom" "Write every row as Prometheus text-exposition metrics."
      $ names)

(* -- crash-demo --------------------------------------------------------- *)

(* One crash at a user-chosen persistence event: the harness's
   [crash_once] over {!Crash_scenarios.demo}, narrated.  A crash point
   past the workload wraps around it, so the demo always crashes.  Exits
   1 if the recovered state is not the protocol's durable point. *)
let run_crash_demo cfg crash_after =
  let point =
    if cfg.Rewind.Tm.incll then "the last epoch boundary"
    else "the last committed transaction"
  in
  Fmt.pr "configuration: %a@." Rewind.Tm.pp_config cfg;
  Fmt.pr "running transactions with a crash after %d persistence events...@."
    crash_after;
  let s = Crash_scenarios.demo cfg in
  let recover w arena =
    let d : Crash_scenarios.demo = w.Crash_scenarios.x in
    let recycled = (Arena.stats arena).Stats.buckets_recycled in
    if recycled > 0 then
      Fmt.pr "log buckets recycled before the crash: %d@." recycled;
    Fmt.pr "*** crash: recovery must reach %s (transaction %d) ***@." point
      d.durable;
    let span = Clock.start () in
    let ((_, got) as r) = s.recover w arena in
    Fmt.pr "recovery took %a (simulated)@." Clock.pp_ns (Clock.elapsed span);
    Array.iteri
      (fun i v ->
        Fmt.pr "  cell %d = %Ld (expected %Ld)@." i v
          (d.value d.durable i))
      got;
    r
  in
  match Harness.crash_once { s with recover } ~after:crash_after with
  | _ -> Fmt.pr "state matches %s@." point
  | exception Harness.Failed { detail; _ } ->
      Fmt.pr "state MISMATCH: %s@." detail;
      exit 1

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
      value
      & opt (Cli_arg.count ~min:0) 5_000
      & info [ "crash-after" ] ~docv:"N"
          ~doc:
            "Crash after N persistence events (taken modulo the workload's \
             event count).")
  in
  Cmd.v
    (Cmd.info "crash-demo" ~doc:"Run transactions, crash, recover, verify")
    Term.(const run_crash_demo $ cfg $ after)

(* -- check -------------------------------------------------------------- *)

module San = Rewind_analysis.Sanitizer
module Racecheck = Rewind_analysis.Racecheck

(* Every mode runs the rows of {!Crash_scenarios.protocols} that
   [--config] selects, with their logs sharded into [--partitions].

   The persistency sanitizer over one crash of each protocol's tour: the
   report covers the whole run, recovery included.  [--enumerate] adds
   the exhaustive crash-state enumerations: every fence-boundary subset
   of dirty lines (every event, for InCLL and the set) must recover to an
   allowed state; an illegal one is printed, the rest still run, and the
   exit code is 1. *)
let run_sanitizer protocols ~partitions ~enumerate =
  Fmt.pr "persistency sanitizer — shadow hardware model over each configuration";
  if partitions > 1 then Fmt.pr " (%d log partitions)" partitions;
  Fmt.pr "@.@.";
  let total =
    List.fold_left
      (fun acc (p : Crash_scenarios.protocol) ->
        let san = p.tour () in
        let r = San.report san in
        Fmt.pr "%-12s %a@." p.name San.pp_report r;
        List.iter
          (fun v -> Fmt.pr "    %a@." San.pp_violation v)
          (San.violations san);
        acc + r.San.violation_count)
      0 protocols
  in
  let illegal =
    if enumerate then Crash_scenarios.print_enumerations protocols else 0
  in
  if total > 0 then Fmt.epr "@.%d persistency violation(s) detected@." total
  else Fmt.pr "@.no persistency violations@.";
  if illegal > 0 then Fmt.epr "%d illegal crash state(s) enumerated@." illegal;
  if total > 0 || illegal > 0 then Stdlib.exit 1

(* Happens-before race detection over each protocol's concurrent
   workloads: writers with and without a concurrent checkpointer, the
   TPC-C drivers, the lock-free set.  Any report — data race or persist
   race — fails the run. *)
let run_races protocols ~partitions ~threads =
  Fmt.pr
    "happens-before race detector — vector clocks over the trace stream@.";
  Fmt.pr "(%d writer fiber(s), %d log partition(s))@.@." threads partitions;
  let total = ref 0 in
  List.iter
    (fun (p : Crash_scenarios.protocol) ->
      List.iter
        (fun (name, run) ->
          let rc = run () in
          let races = Racecheck.races rc in
          total := !total + List.length races;
          Fmt.pr "  %-24s %a@." name Racecheck.pp_report (Racecheck.report rc);
          List.iter (fun r -> Fmt.pr "    %a@." Racecheck.pp_race r) races)
        (p.races ~threads))
    protocols;
  if !total > 0 then begin
    Fmt.epr "@.%d race report(s)@." !total;
    Stdlib.exit 1
  end
  else Fmt.pr "@.no races detected@."

let run_check config_filter enumerate partitions races threads =
  let protocols =
    List.filter
      (fun (p : Crash_scenarios.protocol) ->
        Option.fold ~none:true ~some:(String.equal p.name) config_filter)
      (Crash_scenarios.protocols ~partitions ())
  in
  if races then run_races protocols ~partitions ~threads
  else run_sanitizer protocols ~partitions ~enumerate

let check_cmd =
  let names =
    List.map
      (fun (p : Crash_scenarios.protocol) -> (p.name, p.name))
      (Crash_scenarios.protocols ())
  in
  let cfg =
    Arg.(
      value
      & opt (some (enum names)) None
      & info [ "config" ] ~docv:"CONFIG"
          ~doc:
            "Check a single protocol (default: all): a configuration name \
             or 'lfset', the lock-free durable set.")
  in
  let enumerate =
    Arg.(
      value & flag
      & info [ "enumerate" ]
          ~doc:"Also exhaustively enumerate crash states of a small trace.")
  in
  let partitions =
    Arg.(
      value
      & opt (Cli_arg.count ~min:1) 1
      & info [ "partitions" ] ~docv:"N"
          ~doc:"Shard each checked configuration's log into N partitions.")
  in
  let races =
    Arg.(
      value & flag
      & info [ "races" ]
          ~doc:
            "Run the happens-before race detector over the multi-writer, \
             concurrent-checkpoint, TPC-C and lock-free-set workloads \
             instead of the persistency sanitizer.")
  in
  let threads =
    Arg.(
      value
      & opt (Cli_arg.count ~min:1) 4
      & info [ "threads" ] ~docv:"T"
          ~doc:"Concurrent writer fibers for the race-detector workloads.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the persistency sanitizer (or, with --races, the \
          happens-before race detector) over each configuration")
    Term.(const run_check $ cfg $ enumerate $ partitions $ races $ threads)

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

let run_2pc nodes txns drop enumerate =
  if enumerate then run_2pc_enumerate nodes (min txns 8)
  else run_2pc_demo nodes txns drop

let twopc_cmd =
  let nodes =
    Arg.(
      value
      & opt (Cli_arg.count ~min:1) 3
      & info [ "nodes" ] ~docv:"N" ~doc:"Participant nodes (each its own NVM arena).")
  in
  let txns =
    Arg.(
      value
      & opt (Cli_arg.count ~min:1) 8
      & info [ "txns" ] ~docv:"N" ~doc:"Distributed transactions to run.")
  in
  let drop =
    Arg.(
      value
      & opt (Cli_arg.count ~min:0) 6
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

  Cmd.v
    (Cmd.info "2pc"
       ~doc:"Two-phase commit across independent REWIND nodes: demo and \
             crash-everywhere enumeration")
    Term.(const run_2pc $ nodes $ txns $ drop $ enumerate)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "rewind" ~version:"1.0.0"
             ~doc:"REWIND: recovery write-ahead system for in-memory non-volatile data structures")
          [ bench_cmd; crash_demo_cmd; check_cmd; benchdiff_cmd; twopc_cmd ]))
