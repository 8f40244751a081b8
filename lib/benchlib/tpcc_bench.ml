(* Open-loop TPC-C at production scale: the five-transaction mix arriving
   at a fixed rate on the simulated clock, independent of service
   capacity — so queueing delay is visible as latency instead of
   disappearing into a closed loop's back-pressure.

   The model: arrivals are a Poisson process (exponential inter-arrival
   times at [rate] transactions per simulated second).  Each warehouse
   has [terminals_per_warehouse] servers — the open-loop analogue of the
   per-warehouse data locks.  A transaction is dispatched to its home
   warehouse; if every terminal there is busy at its arrival time, it
   backs off (bounded exponential, counted as a conflict retry, same
   constants as the closed-loop driver) and reprobes, eventually queueing
   on the earliest-free terminal.  Transaction bodies execute against one
   shared REWIND manager whose log is partitioned [partitions] ways, with
   every transaction pinned to its home warehouse's partition — the
   home-warehouse log sharding this benchmark exists to measure.

   Latency of one transaction = completion - arrival, so it includes
   backoff and queueing.  Deferred deliveries run on the enqueuing
   terminal right after the triggering transaction, per the spec's
   deferred-execution semantics: they occupy the terminal (adding to
   later arrivals' queueing) but are not part of the triggering
   transaction's response time.  Latencies are charged to a {!Probe}
   phase, and the reported p50/p99/p999 are lower bounds of its log2
   histogram buckets — deterministic, machine-independent numbers a
   committed baseline can gate exactly. *)

open Rewind_nvm
open Rewind_tpcc

(* Same conflict constants as the closed-loop driver: a busy home
   warehouse is a conflict, backed off exponentially in simulated time. *)
let max_conflict_retries = 5
let conflict_backoff_ns = 2_000

let percentile phase q =
  let total = phase.Probe.count in
  if total = 0 then 0
  else begin
    let need = int_of_float (ceil (q *. float_of_int total)) in
    let need = max 1 (min total need) in
    let rec scan acc = function
      | [] -> 0
      | (lower, n) :: rest ->
          if acc + n >= need then lower else scan (acc + n) rest
    in
    scan 0 (Probe.hist_buckets phase)
  end

(* Exponential inter-arrival gap at [rate] arrivals per simulated second,
   rounded to whole simulated nanoseconds (at least 1). *)
let exp_gap_ns rng rate =
  let u = Rng.float rng in
  let u = if u < 1e-12 then 1e-12 else u in
  max 1 (int_of_float (-.Float.log u /. rate *. 1e9))

(* One row, and whether the database passes
   {!Workload.check_mix_consistency} after the run. *)
let run ?(warehouses = 4) ?(partitions = 4) ?(rate = 10_000.)
    ?(arrivals = 2_000) ?(terminals_per_warehouse = 2)
    ?(params = Datagen.small) ?(arena_mb = 256) ?(seed = 7) () =
  if rate <= 0. then invalid_arg "Tpcc_bench.run: rate must be positive";
  let arena = Arena.create ~size_bytes:(arena_mb lsl 20) () in
  let alloc = Alloc.create arena in
  let db =
    Schema.create ~layout:Schema.Optimized ~warehouses
      Rewind_pds.Btree.Direct_nvm alloc
  in
  Datagen.load ~params db 0;
  let cfg = Rewind.with_partitions partitions Workload.tm_config in
  let tm = Rewind.Tm.create ~cfg alloc ~root_slot:Workload.shared_root in
  let db = Schema.rebind db (Rewind_pds.Btree.Logged tm) in
  let queue = Delivery.queue_create () in
  let rng = Rng.create seed in
  let probe = Probe.create () in
  (* free_at.(w-1).(i): simulated time terminal [i] of warehouse [w]
     finishes its current work. *)
  let free_at = Array.make_matrix warehouses terminals_per_warehouse 0 in
  let committed = ref 0 and aborted = ref 0 and retried = ref 0 in
  let new_orders = ref 0 and deliveries = ref 0 in
  let makespan = ref 0 in
  let arrival = ref 0 in
  for _ = 1 to arrivals do
    arrival := !arrival + exp_gap_ns rng rate;
    let warehouse = Rng.int rng 1 warehouses in
    let home = (warehouse - 1) mod partitions in
    let rq =
      Mix.gen ~warehouse ~customers:params.Datagen.customers_per_district rng
        ~items:params.Datagen.items
    in
    let servers = free_at.(warehouse - 1) in
    let earliest () =
      let best = ref 0 in
      Array.iteri (fun i t -> if t < servers.(!best) then best := i) servers;
      !best
    in
    (* Reprobe with bounded exponential backoff while every home terminal
       is busy; after the retry budget, queue on the earliest-free one. *)
    let rec dispatch probe_t attempt =
      let s = earliest () in
      if servers.(s) <= probe_t then (s, probe_t)
      else if attempt < max_conflict_retries then begin
        incr retried;
        dispatch (probe_t + (conflict_backoff_ns lsl min attempt 4)) (attempt + 1)
      end
      else (s, servers.(s))
    in
    let server, start = dispatch !arrival 0 in
    let span = Clock.start () in
    (match Mix.execute ~home db tm ~queue rq with
    | Mix.Committed ->
        incr committed;
        if Mix.is_new_order rq then incr new_orders
    | Mix.Aborted -> incr aborted);
    let service = Clock.elapsed span in
    let completion = start + service in
    Probe.charge probe "latency"
      ~sim_ns:(completion - !arrival)
      ~stats:(Stats.create ());
    (* Deferred deliveries occupy the terminal after the response. *)
    let span = Clock.start () in
    deliveries := !deliveries + Mix.drain_deliveries ~home db tm queue;
    let drained = Clock.elapsed span in
    servers.(server) <- completion + drained;
    if servers.(server) > !makespan then makespan := servers.(server)
  done;
  let lat =
    match Probe.find probe "latency" with
    | Some p -> p
    | None -> assert false (* arrivals >= 1 charges the phase *)
  in
  let minutes = float_of_int !makespan /. 60e9 in
  let row =
    {
      Bench_row.bench = "tpcc";
      labels =
        [
          ("warehouses", string_of_int warehouses);
          ("partitions", string_of_int partitions);
          ("rate", Printf.sprintf "%g" rate);
        ];
      metrics =
        Bench_row.
          [
            info_int "arrivals" arrivals;
            info_int "committed" !committed;
            (* the spec's 1 % invalid-item rollbacks *)
            info_int "aborted" !aborted;
            (* arrivals that found every home terminal busy *)
            info_int "retried" !retried;
            (* committed new-orders: the tpmC numerator *)
            info_int "new_orders" !new_orders;
            info_int "deliveries" !deliveries;
            higher "tpmc_throughput"
              (if minutes > 0. then float_of_int !new_orders /. minutes
               else 0.);
            lower_int "latency_p50_sim_ns" (percentile lat 0.50);
            lower_int "latency_p99_sim_ns" (percentile lat 0.99);
            lower_int "latency_p999_sim_ns" (percentile lat 0.999);
            lower_int "makespan_sim_ns" !makespan;
          ];
    }
  in
  ([ row ], Workload.check_mix_consistency db)
