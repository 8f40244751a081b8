(* Where `update`'s checkpoints spend their time, and how long writers
   wait for the latches because of them.

   Runs the repository benchmark's `update` workload (bench/suite/
   wl_update.ml: 8 closed-loop writers, 4 per log partition, fiber 0
   checkpointing every 500 of its transactions, the same inputs for a
   seed) with a hot-path probe on the manager, twice: as the suite runs
   it, and with no checkpoint at all.  Prints the latency percentiles,
   each checkpoint sub-span per checkpoint (summed over the partitions),
   and each partition latch's total wait and hold.  The run without
   checkpoints is a different schedule, not a baseline: at seed 7 each
   of its latches waits longer (latch 0: 82.2 against 64.8 ms) and its
   p50 is higher (3.015 against 2.500 sim-us), so the difference of the
   two runs' waits is not a cost of the checkpoints.

     dune exec bench/checkpoint_split.exe -- [--seed N] *)

open Rewind_nvm
module Tm = Rewind.Tm
module Round = Rewind_suite.Round

(* bench/suite/wl_update.ml's shape *)
let fibers = 8
let cells = 64
let writes = 4
let txns = 12_000
let cfg = Rewind.with_partitions 2 (Rewind.config_batch ())

let run ~seed ~checkpoint_every =
  (* without checkpoints nothing is ever cleared: room for the whole log *)
  let mb = if checkpoint_every = None then 64 else 16 in
  let arena = Arena.create ~size_bytes:(mb lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot:2 in
  let addr =
    Array.init fibers (fun _ -> Array.init cells (fun _ -> Alloc.alloc alloc 8))
  in
  let plan_cell, plan_val =
    Round.random_writes (Rewind_tpcc.Rng.create seed) (Round.digest ())
      ~n:(fibers * txns * writes) ~cells
  in
  let probe = Probe.create () in
  Tm.set_probe tm (Some probe);
  let lat = Array.make (fibers * txns) 0 in
  let txn f i =
    let base = ((f * txns) + i) * writes in
    let c = Clock.start () in
    let txn = Tm.begin_txn ~home:(f mod cfg.partitions) tm in
    for k = base to base + writes - 1 do
      Tm.write tm txn
        ~addr:addr.(f).(plan_cell.(k))
        ~value:(Int64.of_int plan_val.(k))
    done;
    Tm.commit tm txn;
    lat.((f * txns) + i) <- Clock.elapsed c;
    match checkpoint_every with
    | Some n when f = 0 && (i + 1) mod n = 0 -> Tm.checkpoint tm
    | _ -> ()
  in
  let makespan = Sim_threads.run ~threads:fibers ~ops_per_thread:txns txn in
  Array.sort compare lat;
  let pct permille =
    let n = Array.length lat in
    float_of_int lat.(max 1 (((permille * n) + 999) / 1000) - 1) /. 1e3
  in
  Fmt.pr "ops/sim-s %.0f  p50 %.3f  p99 %.3f  p99.9 %.3f sim-us@."
    (Round.throughput (fibers * txns) makespan)
    (pct 500) (pct 990) (pct 999);
  (match Probe.find probe "checkpoint" with
  | None -> ()
  | Some whole ->
      let n = float_of_int whole.Probe.count in
      Fmt.pr "%d checkpoints; per checkpoint:@." whole.Probe.count;
      List.iter
        (fun p ->
          if String.starts_with ~prefix:"cp-" p.Probe.name then
            let s = p.Probe.stats in
            Fmt.pr "  %-11s %10.0f sim-ns %8.1f lines %7.1f fences %9.1f loads@."
              p.Probe.name
              (float_of_int p.Probe.sim_ns /. n)
              (float_of_int s.Stats.nvm_writes /. n)
              (float_of_int s.Stats.fences /. n)
              (float_of_int s.Stats.loads /. n))
        (Probe.phases probe);
      (* The whole span also covers the latch acquisitions, during which
         other fibers run: only its time is the checkpoint's own. *)
      Fmt.pr "  %-11s %10.0f sim-ns (the sub-spans and the latch acquisitions)@."
        "checkpoint"
        (float_of_int whole.Probe.sim_ns /. n));
  let wait = Tm.latch_wait_ns tm and hold = Tm.latch_hold_ns tm in
  Array.iteri
    (fun i w -> Fmt.pr "latch %d: wait %d ns  hold %d ns@." i w hold.(i))
    wait

let () =
  let seed = ref 7 in
  Arg.parse
    [ ("--seed", Arg.Set_int seed, "N input seed (default 7)") ]
    (fun _ -> raise (Arg.Bad "no positional arguments"))
    "checkpoint_split [--seed N]";
  Fmt.pr "== update, seed %d, a checkpoint every 500 of fiber 0's txns@." !seed;
  run ~seed:!seed ~checkpoint_every:(Some 500);
  Fmt.pr "@.== the same, no checkpoint@.";
  run ~seed:!seed ~checkpoint_every:None
