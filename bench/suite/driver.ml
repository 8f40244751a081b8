(* Rounds and metrics.

   A run repeats whole rounds — fresh set-up, the workload's fixed
   operations, its power failure and restart, its checks — until the time
   budget is spent.  Every round of one seed issues identical inputs, so
   every simulated-clock quantity must repeat exactly; a round that
   disagrees with the first makes the run incorrect.  Simulated metrics
   therefore come from the first round.  The first round sets up five
   times, later ones once, and the set-up time is the median of the
   first round's five.  Only those count: a set-up that follows a round
   ran up to twice as fast as one that follows another set-up (update and
   read), so a median over all of them would move with the number of
   rounds, that is with the machine's speed.

   With tracing, odd rounds are traced: their simulated outputs must
   equal the untraced rounds', and their layer spans give the per-layer
   metrics. *)

let workloads =
  [
    Wl_tpcc.workload; Wl_update.workload; Wl_read.workload; Wl_recover.workload;
  ]

type metric = {
  name : string;
  value : float;
  unit : string;
  samples : int option;  (** for percentiles: how many samples *)
}

type result = {
  workload : string;
  seed : int;
  rounds : int;
  traced_rounds : int;
  attempted : int;
  failed : int;
  deterministic : bool;  (** every round agreed on its simulated outputs *)
  digest : int;
  e2e : metric list;  (** gated by BENCHMARK.json *)
  wall : metric list;  (** end-to-end wall-clock metrics, reported only *)
  per_layer : metric list;  (** the per-layer metrics every workload has *)
  layer : metric list;  (** the other layer metrics, workload-specific *)
  spans : Layer.t option;  (** the first traced round's tracer *)
}

let correct r = r.failed = 0 && r.deterministic
let m ?samples name unit value = { name; value; unit; samples }
let recovery_phases = [ "log-attach"; "analysis"; "redo"; "undo"; "clearing" ]
let fdiv a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per_op (r : Round.t) = r.meter.wall_s /. float_of_int r.attempted

(* Wall seconds per operation: the median over rounds. *)
let wall_per_op rounds = Stat.median (List.map per_op rounds)

(* Wall seconds of [f] of a recovery: the median over every recovery of
   every round. *)
let recovery_wall f (rounds : Round.t list) =
  Stat.median
    (List.concat_map (fun (r : Round.t) -> List.map f r.recoveries) rounds)

let e2e ~setups ~(r0 : Round.t) =
  let sorted = Stat.sorted_copy r0.lat_ns in
  let samples = Array.length sorted in
  let pct name permille =
    match Stat.percentile sorted permille with
    | Some v -> [ m ~samples name "sim_us" (float_of_int v /. 1e3) ]
    | None -> []
  in
  let st = r0.meter.stats in
  let recovery_us (x : Round.recovery) = float_of_int x.sim_ns /. 1e3 in
  [
    m "setup_s" "s" (Stat.median setups);
    m "ops_per_sim_s" "ops/sim-s" r0.ops_per_sim_s;
  ]
  @ pct "latency_p50_sim_us" 500
  @ pct "latency_p99_sim_us" 990
  @ pct "latency_p999_sim_us" 999
  @ [
      m "nvm_lines_per_op" "lines/op" (fdiv st.nvm_writes r0.attempted);
      m "fences_per_op" "fences/op" (fdiv st.fences r0.attempted);
      m "recovery_sim_us" "sim_us"
        (Stat.median (List.map recovery_us r0.recoveries));
      m "nvm_mb" "MB" (float_of_int r0.nvm_bytes /. 1048576.);
    ]

(* End-to-end wall-clock metrics: reported, not gated.  On a shared
   two-vCPU virtual machine the simulator's speed drifted by up to 2x for
   tens of seconds at a time, so across runs these spread wider than any
   useful bound. *)
let wall untraced =
  [
    m "wall_us_per_op" "us" (1e6 *. wall_per_op untraced);
    m "recovery_wall_ms" "ms"
      (1e3 *. recovery_wall Round.recovery_wall untraced);
  ]

(* The per-layer metrics every workload reports: whole-request cost, the
   NVM and log counters of the measured operations, the recovery's
   phases, the collector, and the harness's own share. *)
let per_layer ~(r0 : Round.t) ~untraced ~(rt : Round.t) layer =
  let st = r0.meter.stats and n = r0.attempted and c = r0.commits in
  let ops = Option.get (Layer.find layer "app.op") in
  let med f =
    Stat.median
      (List.map (fun (x : Round.recovery) -> float_of_int (f x)) r0.recoveries)
  in
  let phase p (x : Round.recovery) =
    Option.value (List.assoc_opt p x.phases) ~default:0
  in
  let records = st.inline_records + st.full_records in
  let gc f =
    Stat.median
      (List.map
         (fun (r : Round.t) -> f r.meter /. float_of_int r.attempted)
         untraced)
  in
  [
    m "app.op.sim_ns" "sim_ns" (fdiv ops.sim ops.calls);
    m "app.op.wall_ns" "ns" (1e9 *. ops.wall /. float_of_int ops.calls);
    m "nvm.loads_per_op" "count/op" (fdiv st.loads n);
    m "nvm.flushes_per_op" "count/op" (fdiv st.flushes n);
    m "nvm.nt_stores_per_op" "count/op" (fdiv st.nt_stores n);
    m "nvm.redundant_flushes_per_op" "count/op" (fdiv st.redundant_flushes n);
    m "nvm.redundant_fences_per_op" "count/op" (fdiv st.redundant_fences n);
    m "nvm.lines_per_commit" "count/commit" (fdiv st.nvm_writes c);
    m "nvm.fences_per_commit" "count/commit" (fdiv st.fences c);
    m "core.commits_per_op" "count/op" (fdiv c n);
    m "core.log.records_per_commit" "count/commit" (fdiv records c);
    m "core.log.inline_frac" "frac" (fdiv st.inline_records records);
    m "core.log.group_flushes_per_commit" "count/commit"
      (fdiv st.group_flushes c);
  ]
  @ List.map
      (fun p -> m ("core.recovery." ^ p ^ ".sim_ns") "sim_ns" (med (phase p)))
      recovery_phases
  @ [
      m "core.recovery.records_scanned" "count"
        (med (fun x -> x.report.records_scanned));
      m "core.recovery.redo_applied" "count"
        (med (fun x -> x.report.redo_applied));
      m "core.recovery.txns_undone" "count"
        (med (fun x -> x.report.txns_undone));
      m "nvm.recovery_lines" "count" (med (fun x -> x.work.nvm_writes));
      m "nvm.recovery_fences" "count" (med (fun x -> x.work.fences));
      m "nvm.crash.wall_ms" "ms"
        (1e3 *. recovery_wall (fun x -> x.crash_wall) untraced);
      m "core.attach.wall_ms" "ms"
        (1e3 *. recovery_wall (fun x -> x.attach_wall) untraced);
      m "gc.minor_words_per_op" "words/op" (gc (fun g -> g.minor_words));
      m "gc.promoted_words_per_op" "words/op" (gc (fun g -> g.promoted_words));
      m "gc.major_collections_per_kop" "count/kop"
        (1e3 *. gc (fun g -> float_of_int g.major_collections));
      m "bench.harness_wall_frac" "frac"
        (1. -. (rt.meter.traced_wall_s /. rt.meter.wall_s));
      m "bench.trace_overhead_frac" "frac"
        ((per_op rt /. wall_per_op untraced) -. 1.);
    ]

(* Every layer the tracer saw, per call, and the workload's own simulated
   layer metrics, less what [per_layer] already reports. *)
let layer_detail ~(r0 : Round.t) ~per_layer layer =
  let calls name =
    let a = Option.get (Layer.find layer name) in
    let per x = float_of_int x /. float_of_int a.calls in
    [
      m (name ^ ".calls") "count" (float_of_int a.calls);
      m (name ^ ".sim_ns") "sim_ns" (per a.sim);
      m (name ^ ".wall_ns") "ns" (1e9 *. a.wall /. float_of_int a.calls);
      m (name ^ ".nvm_lines") "count" (per a.stats.nvm_writes);
      m (name ^ ".fences") "count" (per a.stats.fences);
      m (name ^ ".loads") "count" (per a.stats.loads);
    ]
    @
    match Stat.percentile (Stat.sorted_copy (Layer.samples a)) 990 with
    | Some p ->
        [
          m ~samples:a.n_samples (name ^ ".sim_p99_ns") "sim_ns"
            (float_of_int p);
        ]
    | None -> []
  in
  List.concat_map calls (Layer.names layer)
  @ List.map (fun (name, value, unit) -> m name unit value) r0.extra
  |> List.filter (fun x ->
         not (List.exists (fun y -> y.name = x.name) per_layer))

let run ?(tiny = false) ~seed ~seconds ~trace (w : Round.workload) =
  let t0 = Round.wall () in
  let setups = ref [] and untraced = ref [] and traced = ref [] in
  let first = ref None and deterministic = ref true and tracer = ref None in
  let round i =
    let go = ref None in
    for _ = 1 to if i = 0 then 5 else 1 do
      (* drop the previous set-up (and the previous round's arena) before
         making the next *)
      go := None;
      Gc.full_major ();
      let s = Round.wall () in
      let g = w.prepare ~tiny ~seed in
      if i = 0 then setups := (Round.wall () -. s) :: !setups;
      go := Some g
    done;
    let on = trace && i mod 2 = 1 in
    let layer = Layer.create ~on in
    let r =
      Fun.protect
        ~finally:(fun () -> Layer.close layer)
        (fun () -> (Option.get !go) layer)
    in
    (* later rounds only need checking against the first, and their
       meters *)
    let r =
      match !first with
      | None ->
          first := Some r;
          r
      | Some r0 ->
          if Round.sim_view r <> Round.sim_view r0 then deterministic := false;
          { r with lat_ns = [||] }
    in
    if not on then untraced := r :: !untraced
    else begin
      (* only the first traced round's tracer is reported *)
      if !traced = [] then tracer := Some layer;
      traced := r :: !traced
    end
  in
  let i = ref 0 in
  round 0;
  while Round.wall () -. t0 < seconds || (trace && !traced = []) do
    incr i;
    round !i
  done;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let r0 = Option.get !first in
  let rounds = untraced @ traced in
  let per_layer, layer =
    match (traced, !tracer) with
    | rt :: _, Some l ->
        let per_layer = per_layer ~r0 ~untraced ~rt l in
        (per_layer, layer_detail ~r0 ~per_layer l)
    | _ -> ([], [])
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rounds in
  {
    workload = w.name;
    seed;
    rounds = List.length rounds;
    traced_rounds = List.length traced;
    attempted = sum (fun r -> r.Round.attempted);
    failed = sum (fun r -> r.Round.failed);
    deterministic = !deterministic;
    digest = r0.digest;
    e2e = e2e ~setups:!setups ~r0;
    wall = wall untraced;
    per_layer;
    layer;
    spans = !tracer;
  }
