(* The span/phase profiler ([Probe]) and its wiring through the
   transaction manager: unit behaviour of the accumulator itself, the
   per-phase recovery profile exposed by [Tm.last_recovery_profile], the
   hot-path spans behind [Tm.set_probe], and the recovery-time benchmark
   built on top of them.

   The scoping test at the end is the regression for the cross-attach
   accounting bug: the arena's [Stats] counters are cumulative across
   crashes and reattaches, so attributing a recovery by differencing the
   arena totals against zero double-counts every earlier cycle.  Each
   recovery must get a fresh probe whose phase deltas cover exactly that
   recovery — two identical crash/recover cycles must profile the same,
   not 1x then 2x. *)

open Rewind_nvm
open Rewind
module Rbench = Rewind_benchlib.Recovery_bench
module Bench_row = Rewind_benchlib.Bench_row
module Scenarios = Rewind_benchlib.Crash_scenarios
open Support

let phase_names prof = List.map (fun p -> p.Probe.name) (Probe.phases prof)

(* ------------------------------------------------------------------ *)
(* 1. Probe accumulator                                                *)
(* ------------------------------------------------------------------ *)

let test_probe_spans () =
  let arena = Arena.create ~size_bytes:(1 lsl 16) () in
  let stats = Arena.stats arena in
  let p = Probe.create () in
  (* a span charges elapsed simulated time and the stats delta *)
  Probe.span p stats "write" (fun () ->
      Arena.write arena 1024 1L;
      Arena.flush_line arena 1024;
      Arena.fence arena);
  Probe.span p stats "idle" (fun () -> ());
  Probe.span p stats "write" (fun () ->
      Arena.write arena 2048 2L;
      Arena.flush_line arena 2048;
      Arena.fence arena);
  check_bool "phases in first-entry order" true
    (phase_names p = [ "write"; "idle" ]);
  let w = Option.get (Probe.find p "write") in
  check_int "two spans accumulated" 2 w.Probe.count;
  check_int "flushes attributed" 2 w.Probe.stats.Stats.flushes;
  check_int "fences attributed" 2 w.Probe.stats.Stats.fences;
  check_bool "simulated time charged" true (w.Probe.sim_ns > 0);
  let idle = Option.get (Probe.find p "idle") in
  check_int "idle span saw no flushes" 0 idle.Probe.stats.Stats.flushes;
  check_int "total is the sum" (w.Probe.sim_ns + idle.Probe.sim_ns)
    (Probe.total_sim_ns p)

(* A span must charge even when the body raises — a crash inside a
   checkpoint still belongs to the checkpoint's account. *)
let test_probe_span_on_exception () =
  let arena = Arena.create ~size_bytes:(1 lsl 16) () in
  let stats = Arena.stats arena in
  let p = Probe.create () in
  (try
     Probe.span p stats "boom" (fun () ->
         Arena.write arena 1024 1L;
         Arena.flush_line arena 1024;
         failwith "crash")
   with Failure _ -> ());
  let b = Option.get (Probe.find p "boom") in
  check_int "span counted" 1 b.Probe.count;
  check_int "flush attributed before the raise" 1 b.Probe.stats.Stats.flushes

(* ------------------------------------------------------------------ *)
(* 2. Recovery profile shape, per configuration                        *)
(* ------------------------------------------------------------------ *)

let crash_and_reattach cfg =
  let arena, alloc, tm = fresh ~size_bytes:(4 lsl 20) ~cfg () in
  let cells = Array.init 8 (fun _ -> Alloc.alloc alloc 8) in
  for tno = 1 to 3 do
    let t = Tm.begin_txn tm in
    for i = 0 to 3 do
      Tm.write tm t ~addr:cells.(i) ~value:(Int64.of_int ((tno * 10) + i))
    done;
    Tm.commit tm t
  done;
  let live = Tm.begin_txn tm in
  Tm.write tm live ~addr:cells.(7) ~value:99L;
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  Tm.attach ~cfg alloc2 ~root_slot

let test_recovery_profile (name, cfg) () =
  let tm = crash_and_reattach cfg in
  let prof =
    match Tm.last_recovery_profile tm with
    | Some p -> p
    | None -> Alcotest.fail (name ^ ": attach left no recovery profile")
  in
  let names = phase_names prof in
  let has n = List.mem n names in
  check_bool (name ^ ": log-attach profiled") true (has "log-attach");
  check_bool (name ^ ": analysis profiled") true (has "analysis");
  check_bool (name ^ ": undo profiled") true (has "undo");
  check_bool (name ^ ": clearing profiled") true (has "clearing");
  check_bool
    (name ^ ": redo phase iff no-force")
    (cfg.Tm.policy = Tm.No_force)
    (has "redo");
  check_bool
    (name ^ ": index-rebuild iff two-layer")
    (cfg.Tm.layers = Tm.Two_layer)
    (has "index-rebuild");
  check_bool (name ^ ": recovery took simulated time") true
    (Probe.total_sim_ns prof > 0);
  (* rolling back the live transaction persists work — in the undo phase
     itself, or (Batch: the CLRs stay cached until the group flush) in
     the clearing pass that follows it *)
  let persisted n =
    match Probe.find prof n with
    | None -> 0
    | Some p -> p.Probe.stats.Stats.nvm_writes + p.Probe.stats.Stats.nt_stores
  in
  check_bool (name ^ ": undo+clearing wrote to NVM") true
    (persisted "undo" + persisted "clearing" > 0)

(* A fresh manager that has never recovered reports no profile. *)
let test_no_profile_before_recovery () =
  let _, _, tm = fresh ~size_bytes:(1 lsl 20) () in
  check_bool "no profile yet" true (Tm.last_recovery_profile tm = None)

(* ------------------------------------------------------------------ *)
(* 3. Per-recovery scope: two identical cycles profile identically     *)
(* ------------------------------------------------------------------ *)

let test_recovery_scope (name, cfg) () =
  let arena, alloc, tm = fresh ~size_bytes:(4 lsl 20) ~cfg () in
  let cell = Alloc.alloc ~align:64 alloc 8 in
  let cycle tm =
    let t = Tm.begin_txn tm in
    Tm.write tm t ~addr:cell ~value:7L;
    Tm.commit tm t;
    let live = Tm.begin_txn tm in
    Tm.write tm live ~addr:cell ~value:8L;
    Arena.crash arena;
    let alloc' = Alloc.recover arena in
    let tm' = Tm.attach ~cfg alloc' ~root_slot in
    let undo =
      Option.get (Probe.find (Option.get (Tm.last_recovery_profile tm')) "undo")
    in
    ( undo.Probe.stats.Stats.nvm_writes,
      undo.Probe.stats.Stats.flushes,
      undo.Probe.stats.Stats.fences,
      tm' )
  in
  let w1, fl1, fe1, tm2 = cycle tm in
  let w2, fl2, fe2, _ = cycle tm2 in
  (* The arena's cumulative counters have doubled by the second cycle;
     the profile must not have. *)
  check_int (name ^ ": second undo, same line writes") w1 w2;
  check_int (name ^ ": second undo, same flushes") fl1 fl2;
  check_int (name ^ ": second undo, same fences") fe1 fe2

(* ------------------------------------------------------------------ *)
(* 4. Single-pass recovery: redo and undo replay analysis's stream     *)
(* ------------------------------------------------------------------ *)

let single_pass_configs = configs [ "1l-nfp"; "batch"; "1l-nfp-p4"; "batch-p4" ]

(* Committed transactions spread over every partition, optionally one
   left in flight, then a power failure and reattach. *)
let crash_and_recover ~in_flight cfg =
  let arena, alloc, tm = fresh ~cfg () in
  let cells = Array.init 16 (fun _ -> Alloc.alloc alloc 8) in
  for tno = 1 to 12 do
    let t = Tm.begin_txn tm in
    for i = 0 to 3 do
      Tm.write tm t ~addr:cells.((tno + i) mod 16) ~value:(Int64.of_int tno)
    done;
    Tm.commit tm t
  done;
  if in_flight then begin
    (* eight writes: a full Batch group, so its records are durable *)
    let live = Tm.begin_txn tm in
    for i = 0 to 7 do
      Tm.write tm live ~addr:cells.(i) ~value:99L
    done
  end;
  Arena.crash arena;
  let alloc = Alloc.recover arena in
  let span = Clock.start () in
  let tm = Tm.attach ~cfg alloc ~root_slot in
  let attach_ns = Clock.elapsed span in
  ( arena,
    Option.get (Tm.last_recovery tm),
    Option.get (Tm.last_recovery_profile tm),
    attach_ns )

(* Analysis decodes every record once; redo is then the cached stores
   alone — no load, one [dram_write_ns] per re-applied record. *)
let test_redo_replays_stream (name, cfg) () =
  let arena, report, prof, _ = crash_and_recover ~in_flight:true cfg in
  let redo = Option.get (Probe.find prof "redo") in
  check_bool (name ^ ": redo re-applied records") true
    (report.Tm.redo_applied > 0);
  check_int (name ^ ": redo loads nothing") 0 redo.Probe.stats.Stats.loads;
  check_int
    (name ^ ": redo costs one cached store per record")
    (report.Tm.redo_applied * (Arena.config arena).Config.dram_write_ns)
    redo.Probe.sim_ns;
  check_int (name ^ ": the live transaction was undone") 1
    report.Tm.txns_undone

(* With no transaction in flight there is no loser, so undo reads and
   writes nothing. *)
let test_undo_without_losers (name, cfg) () =
  let _, report, prof, _ = crash_and_recover ~in_flight:false cfg in
  let undo = Option.get (Probe.find prof "undo") in
  check_int (name ^ ": nothing undone") 0 report.Tm.txns_undone;
  check_int (name ^ ": undo took no simulated time") 0 undo.Probe.sim_ns;
  check_int (name ^ ": undo loads nothing") 0 undo.Probe.stats.Stats.loads

(* Parallel recovery keeps the profile additive: the top-level phases sum
   exactly to the attach's simulated time.  The fork-joined phases
   (log-attach, index-rebuild, analysis, clearing) are charged once;
   with several partitions each partition's share is a "phase/pN"
   sub-span, the structural phases last exactly as long as their slowest
   partition, and the shares overlap — they sum past the phase.
   Analysis and clearing also do serial work around their joins (the
   merge; the pending groups and the horizon store), so they only cover
   their slowest share. *)
let parallel_configs =
  configs [ "1l-nfp"; "2l-nfp"; "1l-nfp-p4"; "2l-nfp-p4" ]

let test_phases_sum_to_attach (name, cfg) () =
  let _, _, prof, attach_ns = crash_and_recover ~in_flight:true cfg in
  let phases = Probe.phases prof in
  let top = List.filter (fun p -> not (String.contains p.Probe.name '/')) phases in
  check_int
    (name ^ ": top-level phases sum to the attach")
    attach_ns
    (List.fold_left (fun acc p -> acc + p.Probe.sim_ns) 0 top);
  let joined =
    "log-attach" :: "analysis" :: "clearing"
    :: (if cfg.Tm.layers = Tm.Two_layer then [ "index-rebuild" ] else [])
  in
  List.iter
    (fun ph ->
      let p = Option.get (Probe.find prof ph) in
      check_int (Fmt.str "%s: %s charged once" name ph) 1 p.Probe.count;
      let shares =
        List.filter_map
          (fun s ->
            if String.starts_with ~prefix:(ph ^ "/p") s.Probe.name then
              Some s.Probe.sim_ns
            else None)
          phases
      in
      if cfg.Tm.partitions = 1 then
        check_int (Fmt.str "%s: %s has no sub-spans" name ph) 0
          (List.length shares)
      else begin
        check_int (Fmt.str "%s: %s has a share per partition" name ph)
          cfg.Tm.partitions (List.length shares);
        let slowest = List.fold_left max 0 shares in
        if ph = "analysis" || ph = "clearing" then
          check_bool (Fmt.str "%s: %s covers its slowest share" name ph)
            true (p.Probe.sim_ns >= slowest)
        else
          check_int (Fmt.str "%s: %s lasts its slowest share" name ph) slowest
            p.Probe.sim_ns;
        check_bool (Fmt.str "%s: %s shares overlap" name ph) true
          (List.fold_left ( + ) 0 shares > p.Probe.sim_ns)
      end)
    joined

(* ------------------------------------------------------------------ *)
(* 5. Hot-path spans via [Tm.set_probe]                                *)
(* ------------------------------------------------------------------ *)

let test_hot_path_probe () =
  let _, alloc, tm = fresh ~size_bytes:(4 lsl 20) () in
  let cell = Alloc.alloc alloc 8 in
  let p = Probe.create () in
  Tm.set_probe tm (Some p);
  for i = 1 to 5 do
    let t = Tm.begin_txn tm in
    Tm.write tm t ~addr:cell ~value:(Int64.of_int i);
    Tm.commit tm t
  done;
  let t = Tm.begin_txn tm in
  let sp = Tm.savepoint tm t in
  Tm.write tm t ~addr:cell ~value:6L;
  Tm.rollback_to tm t sp;
  Tm.write tm t ~addr:cell ~value:7L;
  Tm.rollback tm t;
  Tm.checkpoint tm;
  let commit = Option.get (Probe.find p "commit") in
  check_int "five commits spanned" 5 commit.Probe.count;
  check_bool "commit charged time" true (commit.Probe.sim_ns > 0);
  List.iter
    (fun name ->
      match Probe.find p name with
      | None -> Alcotest.failf "no %s span" name
      | Some s ->
          check_int (name ^ " spanned once") 1 s.Probe.count;
          check_bool (name ^ " charged time") true (s.Probe.sim_ns > 0))
    [ "rollback"; "rollback-to" ];
  let names = phase_names p in
  List.iter
    (fun n ->
      check_bool ("checkpoint sub-phase " ^ n) true (List.mem n names))
    [
      "checkpoint"; "cp-persist"; "cp-unlink"; "cp-clear"; "cp-compact";
      "cp-reclaim";
    ];
  (* detaching the probe stops accumulation *)
  Tm.set_probe tm None;
  let t = Tm.begin_txn tm in
  Tm.write tm t ~addr:cell ~value:42L;
  Tm.commit tm t;
  check_int "no span after detach" 5 commit.Probe.count

(* ------------------------------------------------------------------ *)
(* 6. Recovery-time benchmark plumbing                                 *)
(* ------------------------------------------------------------------ *)

let test_recovery_bench () =
  let rows = Rbench.run ~sizes:[ 160 ] ~intervals:[ 0; 5 ] () in
  let totals, phases =
    List.partition (fun r -> Bench_row.label r "phase" = None) rows
  in
  check_int "one totals row per config and point"
    (List.length Rbench.configs * 2)
    (List.length totals);
  let metric r name = Option.get (Bench_row.value r name) in
  List.iter
    (fun r ->
      let config = Option.get (Bench_row.label r "config") in
      check_bool
        (config ^ ": recovery is sanitizer-clean")
        true
        (metric r "sanitizer_violations" = 0.);
      (* InCLL rolls back in its epoch scan; WAL recovery ends in undo *)
      let last =
        if (List.assoc config Rbench.configs).Tm.incll then "epoch-scan"
        else "undo"
      in
      check_bool (config ^ ": phases present") true
        (List.exists
           (fun p -> Bench_row.key p = Bench_row.key r ^ "/phase=" ^ last)
           phases);
      check_bool (config ^ ": recovery time measured") true
        (metric r "total_sim_ns" > 0.);
      (* InCLL reports cells, WAL records: neither under the other's name *)
      let incll = (List.assoc config Rbench.configs).Tm.incll in
      List.iter
        (fun (m, mine) ->
          check_bool (Fmt.str "%s: %s reported" config m) (mine = incll)
            (Bench_row.value r m <> None))
        [
          ("cells_scanned", true); ("cells_rewound", true);
          ("records_scanned", false); ("txns_undone", false);
        ])
    totals;
  (* checkpointing shrinks the log left for recovery *)
  let log_at ckpt =
    Bench_row.total "log_records"
      (List.filter
         (fun r -> Bench_row.label r "checkpoint_every" = Some ckpt)
         totals)
  in
  check_bool "checkpoints shrink the recovered log" true (log_at "5" < log_at "0");
  (* a checkpointing point reports its checkpoints, whole and per
     sub-span; a point without checkpoints reports none *)
  let checkpoint_rows ckpt =
    List.filter
      (fun r ->
        r.Bench_row.bench = "checkpoint"
        && Bench_row.label r "checkpoint_every" = Some ckpt)
      rows
  in
  check_int "no checkpoint rows without checkpoints" 0
    (List.length (checkpoint_rows "0"));
  List.iter
    (fun (config, _) ->
      let mine =
        List.filter
          (fun r -> Bench_row.label r "config" = Some config)
          (checkpoint_rows "5")
      in
      let phase ph =
        List.find_opt (fun r -> Bench_row.label r "phase" = Some ph) mine
      in
      List.iter
        (fun ph ->
          check_bool (Fmt.str "%s: %s row" config ph) true (phase ph <> None))
        [ "checkpoint"; "cp-persist"; "cp-clear"; "cp-compact" ];
      let whole = Option.get (phase "checkpoint") in
      check_bool (config ^ ": 160 updates, 20 commits, 4 checkpoints") true
        (metric whole "checkpoints" = 4.);
      (* the sub-spans add up to no more than the whole checkpoint *)
      let parts =
        List.fold_left
          (fun acc r ->
            if Bench_row.label r "phase" <> Some "checkpoint" then
              acc +. metric r "sim_ns"
            else acc)
          0. mine
      in
      check_bool (config ^ ": sub-spans within the checkpoint") true
        (parts <= metric whole "sim_ns" && metric whole "sim_ns" > 0.))
    (* InCLL's checkpoint is an epoch advance, with no [cp-*] split *)
    (List.filter (fun (_, cfg) -> not cfg.Tm.incll) Rbench.configs);
  let json = Bench_row.to_json rows in
  check_bool "json array" true
    (String.length json > 2 && json.[0] = '[');
  check_bool "json has phase rows" true (contains json "\"phase\": \"undo\"");
  let prom = Bench_row.to_prometheus rows in
  check_bool "prometheus total metric" true
    (contains prom "rewind_recovery_total_sim_ns{config=\"1l-nfp\"");
  check_bool "prometheus phase metric" true
    (contains prom "rewind_recovery_sim_ns{config=\"1l-nfp\"");
  check_bool "prometheus phase label" true (contains prom ",phase=\"undo\"}");
  check_bool "prometheus sanitizer metric" true
    (contains prom "rewind_recovery_sanitizer_violations")

(* ------------------------------------------------------------------ *)

let () =
  let per_config name speed f =
    List.map
      (fun (cn, cfg) ->
        Alcotest.test_case (Fmt.str "%s [%s]" name cn) speed (f (cn, cfg)))
      Scenarios.wal_configs
  in
  Alcotest.run "profile"
    [
      ( "probe",
        [
          Alcotest.test_case "span accounting" `Quick test_probe_spans;
          Alcotest.test_case "span charges on exception" `Quick
            test_probe_span_on_exception;
        ] );
      ( "recovery-profile",
        per_config "phase shape" `Quick test_recovery_profile
        @ [
            Alcotest.test_case "none before first recovery" `Quick
              test_no_profile_before_recovery;
          ] );
      ( "recovery-scope",
        per_config "two cycles profile identically" `Quick test_recovery_scope
      );
      ( "single-pass",
        List.concat_map
          (fun (cn, cfg) ->
            [
              Alcotest.test_case
                (Fmt.str "redo replays the stream [%s]" cn)
                `Quick
                (test_redo_replays_stream (cn, cfg));
              Alcotest.test_case
                (Fmt.str "undo idle without losers [%s]" cn)
                `Quick
                (test_undo_without_losers (cn, cfg));
            ])
          single_pass_configs );
      ( "parallel-recovery",
        List.map
          (fun (cn, cfg) ->
            Alcotest.test_case
              (Fmt.str "phases sum to the attach [%s]" cn)
              `Quick
              (test_phases_sum_to_attach (cn, cfg)))
          parallel_configs );
      ( "hot-path",
        [
          Alcotest.test_case "commit/rollback/checkpoint spans" `Quick
            test_hot_path_probe;
        ] );
      ( "bench",
        [ Alcotest.test_case "recovery bench rows + artifacts" `Quick test_recovery_bench ] );
    ]
