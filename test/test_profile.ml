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

let root_slot = 2

let all_configs =
  [
    ("1l-nfp", Rewind.config_1l_nfp);
    ("1l-fp", Rewind.config_1l_fp);
    ("2l-nfp", Rewind.config_2l_nfp);
    ("2l-fp", Rewind.config_2l_fp);
    ("simple", Rewind.config_simple);
    ("batch8", Rewind.config_batch ());
  ]

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

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
    (Probe.total_sim_ns p);
  check_int "histogram holds every span" 2
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Probe.hist_buckets w))

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
  let arena = Arena.create ~size_bytes:(4 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
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
  let arena = Arena.create ~size_bytes:(1 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create alloc ~root_slot in
  check_bool "no profile yet" true (Tm.last_recovery_profile tm = None)

(* ------------------------------------------------------------------ *)
(* 3. Per-recovery scope: two identical cycles profile identically     *)
(* ------------------------------------------------------------------ *)

let test_recovery_scope (name, cfg) () =
  let arena = Arena.create ~size_bytes:(4 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
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

let single_pass_configs =
  List.concat_map
    (fun n ->
      [
        (Fmt.str "1l-nfp x%d" n, Rewind.with_partitions n Rewind.config_1l_nfp);
        (Fmt.str "batch8 x%d" n, Rewind.with_partitions n (Rewind.config_batch ()));
      ])
    [ 1; 4 ]

(* Committed transactions spread over every partition, optionally one
   left in flight, then a power failure and reattach. *)
let crash_and_recover ~in_flight cfg =
  let arena = Arena.create ~size_bytes:(8 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
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
  let tm = Tm.attach ~cfg (Alloc.recover arena) ~root_slot in
  ( arena,
    Option.get (Tm.last_recovery tm),
    Option.get (Tm.last_recovery_profile tm) )

(* Analysis decodes every record once; redo is then the cached stores
   alone — no load, one [dram_write_ns] per re-applied record. *)
let test_redo_replays_stream (name, cfg) () =
  let arena, report, prof = crash_and_recover ~in_flight:true cfg in
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
  let _, report, prof = crash_and_recover ~in_flight:false cfg in
  let undo = Option.get (Probe.find prof "undo") in
  check_int (name ^ ": nothing undone") 0 report.Tm.txns_undone;
  check_int (name ^ ": undo took no simulated time") 0 undo.Probe.sim_ns;
  check_int (name ^ ": undo loads nothing") 0 undo.Probe.stats.Stats.loads

(* ------------------------------------------------------------------ *)
(* 5. Hot-path spans via [Tm.set_probe]                                *)
(* ------------------------------------------------------------------ *)

let test_hot_path_probe () =
  let arena = Arena.create ~size_bytes:(4 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create alloc ~root_slot in
  let cell = Alloc.alloc alloc 8 in
  let p = Probe.create () in
  Tm.set_probe tm (Some p);
  for i = 1 to 5 do
    let t = Tm.begin_txn tm in
    Tm.write tm t ~addr:cell ~value:(Int64.of_int i);
    Tm.commit tm t
  done;
  Tm.checkpoint tm;
  let commit = Option.get (Probe.find p "commit") in
  check_int "five commits spanned" 5 commit.Probe.count;
  check_bool "commit charged time" true (commit.Probe.sim_ns > 0);
  let names = phase_names p in
  List.iter
    (fun n ->
      check_bool ("checkpoint sub-phase " ^ n) true (List.mem n names))
    [ "checkpoint"; "cp-persist"; "cp-clear"; "cp-compact" ];
  (* detaching the probe stops accumulation *)
  Tm.set_probe tm None;
  let t = Tm.begin_txn tm in
  Tm.write tm t ~addr:cell ~value:42L;
  Tm.commit tm t;
  check_int "no span after detach" 5 commit.Probe.count

(* ------------------------------------------------------------------ *)
(* 6. Recovery-time benchmark plumbing                                 *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_recovery_bench () =
  let rows = Rbench.run ~sizes:[ 160 ] ~intervals:[ 0; 5 ] () in
  let totals, phases =
    List.partition (fun r -> Bench_row.label r "phase" = None) rows
  in
  check_int "one totals row per config and point" (6 * 2) (List.length totals);
  let metric r name = Option.get (Bench_row.value r name) in
  List.iter
    (fun r ->
      let config = Option.get (Bench_row.label r "config") in
      check_bool
        (config ^ ": recovery is sanitizer-clean")
        true
        (metric r "sanitizer_violations" = 0.);
      check_bool (config ^ ": phases present") true
        (List.exists
           (fun p -> Bench_row.key p = Bench_row.key r ^ "/phase=undo")
           phases);
      check_bool (config ^ ": recovery time measured") true
        (metric r "total_sim_ns" > 0.))
    totals;
  (* checkpointing shrinks the log left for recovery *)
  let log_at ckpt =
    Bench_row.total "log_records"
      (List.filter
         (fun r -> Bench_row.label r "checkpoint_every" = Some ckpt)
         totals)
  in
  check_bool "checkpoints shrink the recovered log" true (log_at "5" < log_at "0");
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
      all_configs
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
      ( "hot-path",
        [ Alcotest.test_case "commit/checkpoint spans" `Quick test_hot_path_probe ] );
      ( "bench",
        [ Alcotest.test_case "recovery bench rows + artifacts" `Quick test_recovery_bench ] );
    ]
