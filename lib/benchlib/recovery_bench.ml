(* Recovery-time benchmark: crash a populated manager and profile the
   reattach, per phase, across all six REWIND configurations plus two
   four-partition ones (whose per-partition attach and analysis run on
   parallel recovery fibers), several log sizes and checkpoint
   intervals.

   Each row reports the per-phase profile from [Tm.last_recovery_profile]
   — simulated time plus the NVM line-write/flush/fence deltas of exactly
   that recovery (the arena's cumulative totals would double-count the
   pre-crash workload) — and the violation count of a persistency
   sanitizer attached for the duration of recovery.  Each point is one
   row of totals plus one row per phase (labelled [phase]).  A point that
   checkpoints also reports its checkpoints, from the hot-path probe: one
   [checkpoint] row per sub-span (labelled [phase]: the whole checkpoint
   and each [cp-*] part), with per-checkpoint simulated time, line writes
   and fences.  All of it lands in BENCH_recovery.json and a
   Prometheus-style text file so CI can gate, archive and alert on it. *)

open Rewind_nvm
module San = Rewind_analysis.Sanitizer

(* The WAL configurations under the CLI's names, then two of them at four
   partitions. *)
let configs =
  Crash_scenarios.wal_configs
  @ List.filter
      (fun (name, _) -> List.mem name [ "1l-nfp-p4"; "2l-nfp-p4" ])
      (Crash_scenarios.matrix 4)

(* The checkpoint and each of its sub-spans, per checkpoint: a sub-span
   that runs once per partition is summed over the partitions. *)
let checkpoint_rows hot ~labels =
  match Probe.find hot "checkpoint" with
  | None -> []
  | Some whole ->
      let per v = float_of_int v /. float_of_int whole.Probe.count in
      Probe.phases hot
      |> List.filter (fun p ->
             p.Probe.name = "checkpoint"
             || String.starts_with ~prefix:"cp-" p.Probe.name)
      |> List.map (fun p ->
             let s = p.Probe.stats in
             {
               Bench_row.bench = "checkpoint";
               labels = labels @ [ ("phase", p.Probe.name) ];
               metrics =
                 Bench_row.
                   [
                     info_int "checkpoints" whole.Probe.count;
                     lower "sim_ns" (per p.Probe.sim_ns);
                     lower "line_writes" (per s.Stats.nvm_writes);
                     lower "fences" (per s.Stats.fences);
                   ];
             })

(* Short committed transactions over a small working set, a checkpoint
   every [checkpoint_every] commits, two transactions left in flight at
   the crash — so recovery exercises analysis, redo (no-force), undo and
   clearing on every configuration. *)
let run_one ~ops ~checkpoint_every (name, cfg) =
  let arena = Arena.create ~size_bytes:(256 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Rewind.Tm.create ~cfg alloc ~root_slot:2 in
  let hot = Probe.create () in
  Rewind.Tm.set_probe tm (Some hot);
  let cells = Array.init 64 (fun _ -> Alloc.alloc alloc 8) in
  let txn_len = 8 in
  let committed = ref 0 in
  let txn = ref (Rewind.Tm.begin_txn tm) in
  for i = 1 to ops do
    Rewind.Tm.write tm !txn
      ~addr:cells.(i mod Array.length cells)
      ~value:(Int64.of_int (i land 0xFFFF));
    if i mod txn_len = 0 then begin
      Rewind.Tm.commit tm !txn;
      incr committed;
      if checkpoint_every > 0 && !committed mod checkpoint_every = 0 then
        Rewind.Tm.checkpoint tm;
      txn := Rewind.Tm.begin_txn tm
    end
  done;
  (* two in-flight transactions give undo real work *)
  let live1 = Rewind.Tm.begin_txn tm and live2 = Rewind.Tm.begin_txn tm in
  for i = 1 to txn_len do
    Rewind.Tm.write tm live1 ~addr:cells.(i) ~value:(Int64.of_int (-i));
    Rewind.Tm.write tm live2 ~addr:cells.(i + txn_len)
      ~value:(Int64.of_int (-i - 100))
  done;
  let log_records =
    Array.fold_left
      (fun n log -> n + Rewind.Log.length log)
      0 (Rewind.Tm.logs tm)
  in
  Arena.crash arena;
  let alloc2 = Alloc.recover arena in
  let san = San.attach ~mode:San.Collect arena in
  let span = Clock.start () in
  let tm2 = Rewind.Tm.attach ~cfg alloc2 ~root_slot:2 in
  let recovery_sim_ns = Clock.elapsed span in
  San.detach san;
  let labels =
    [
      ("config", name);
      ("ops", string_of_int ops);
      ("checkpoint_every", string_of_int checkpoint_every);
    ]
  in
  let totals =
    let open Bench_row in
    let report =
      match Rewind.Tm.last_recovery tm2 with
      | Some r ->
          [
            info_int "records_scanned" r.Rewind.Tm.records_scanned;
            lower_int "torn_truncated" r.Rewind.Tm.torn_truncated;
            info_int "redo_applied" r.Rewind.Tm.redo_applied;
            info_int "txns_finished" r.Rewind.Tm.txns_finished;
            info_int "txns_undone" r.Rewind.Tm.txns_undone;
          ]
      | None -> []
    in
    {
      bench = "recovery";
      labels;
      metrics =
        (lower_int "total_sim_ns" recovery_sim_ns
        :: info_int "log_records" log_records
        :: report)
        @ [
            lower_int "sanitizer_violations" (List.length (San.violations san));
          ];
    }
  in
  let phase p =
    let s = p.Probe.stats in
    {
      Bench_row.bench = "recovery";
      labels = labels @ [ ("phase", p.Probe.name) ];
      metrics =
        Bench_row.
          [
            lower_int "sim_ns" p.Probe.sim_ns;
            lower_int "line_writes" s.Stats.nvm_writes;
            lower_int "nt_stores" s.Stats.nt_stores;
            lower_int "flushes" s.Stats.flushes;
            lower_int "fences" s.Stats.fences;
          ];
    }
  in
  let phases =
    match Rewind.Tm.last_recovery_profile tm2 with
    | Some prof -> List.map phase (Probe.phases prof)
    | None -> []
  in
  (totals, phases @ checkpoint_rows hot ~labels)

(* Every point's totals row, then every point's phase and checkpoint
   rows. *)
let run ~sizes ~intervals () =
  let points =
    List.concat_map
      (fun cfg ->
        List.concat_map
          (fun ops ->
            List.map
              (fun checkpoint_every -> run_one ~ops ~checkpoint_every cfg)
              intervals)
          sizes)
      configs
  in
  List.map fst points @ List.concat_map snd points
