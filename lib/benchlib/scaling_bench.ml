(* Partition-scaling benchmark: throughput of the partitioned log under
   concurrent writers (Section 4.7 / the Figure 9 story), isolated from
   the B+-tree.

   Fixed thread count, varying partition count.  Each fiber runs short
   write transactions against its private cells through one shared
   manager; with one partition every append/commit serialises on the
   single log latch, with [p] partitions concurrent transactions mostly
   land on distinct partitions (round-robin by transaction id) and only
   the LSN fetch — one atomic — is shared.  Simulated time, so results
   are deterministic and the committed BENCH_scaling.json baseline is
   machine-independent. *)

open Rewind_nvm

(* One row per run.  The [series] label is ["scaling"] for the
   partitioned batch log, ["scaling-incll"] for the epoch-based InCLL
   config (always one "partition"), and ["scaling-lfset"] /
   ["scaling-phash"] for the structure head-to-head (lock-free set vs
   latched transactional hash). *)
let row ~series ~threads ~partitions ~total_ops ~makespan =
  {
    Bench_row.bench = "scaling";
    labels =
      [
        ("series", series);
        ("threads", string_of_int threads);
        ("partitions", string_of_int partitions);
      ];
    metrics =
      Bench_row.
        [
          info_int "total_ops" total_ops;
          lower_int "makespan_sim_ns" makespan;
          higher "throughput_ops_per_s"
            (if makespan = 0 then 0.
             else float_of_int total_ops *. 1e9 /. float_of_int makespan);
        ];
  }

let cells_per_thread = 64

(* The writers, shared with the race detector's workloads: a manager over
   [arena] with [cfg]'s log sharded into [partitions] and
   [cells_per_thread] private cells per fiber.  Returns the manager and
   [txn t op], fiber [t]'s [op]-th transaction: [writes_per_txn] writes
   to its own cells, then a commit. *)
let writers arena ~cfg ~partitions ~threads ~writes_per_txn =
  let alloc = Alloc.create arena in
  let cfg = Rewind.with_partitions partitions cfg in
  let tm = Rewind.Tm.create ~cfg alloc ~root_slot:2 in
  let cells =
    Array.init (threads * cells_per_thread) (fun _ -> Rewind.Tm.alloc_cell tm)
  in
  let txn t op =
    let txn = Rewind.Tm.begin_txn tm in
    for i = 0 to writes_per_txn - 1 do
      let c =
        (t * cells_per_thread)
        + (((op * writes_per_txn) + i) mod cells_per_thread)
      in
      Rewind.Tm.write tm txn ~addr:cells.(c)
        ~value:(Int64.of_int ((((t * 1000) + op) * 10) + i))
    done;
    Rewind.Tm.commit tm txn
  in
  (tm, txn)

(* InCLL epoch cadence: each fiber requests a best-effort epoch advance
   ({!Rewind.Tm.checkpoint}) after every full pass over its 64 private
   cells — group durability at the same granularity the append bench
   uses. *)
let advance_every_txns = 16

let run_one ~series ~cfg ~threads ~partitions ~txns_per_thread ~writes_per_txn
    =
  let arena = Arena.create ~size_bytes:(256 lsl 20) () in
  let tm, txn = writers arena ~cfg ~partitions ~threads ~writes_per_txn in
  let makespan =
    Sim_threads.run ~threads ~ops_per_thread:txns_per_thread (fun t op ->
        txn t op;
        if
          cfg.Rewind.Tm.incll
          && op mod advance_every_txns = advance_every_txns - 1
        then Rewind.Tm.checkpoint tm)
  in
  let r =
    row ~series ~threads ~partitions
      ~total_ops:(threads * txns_per_thread * writes_per_txn)
      ~makespan
  in
  (* each partition latch's simulated wait and hold (none under InCLL) *)
  let per_latch name ns =
    List.mapi
      (fun p v -> Bench_row.info_int (Fmt.str "%s_p%d" name p) v)
      (Array.to_list ns)
  in
  {
    r with
    metrics =
      r.metrics
      @ per_latch "latch_wait_ns" (Rewind.Tm.latch_wait_ns tm)
      @ per_latch "latch_hold_ns" (Rewind.Tm.latch_hold_ns tm);
  }

(* Structure head-to-head at the same total operation count: the durable
   lock-free set (CAS + link-and-persist, no latches, no WAL) against the
   latched transactional hash table (one put/remove per committed
   transaction).  Each fiber works a private key range, alternating
   insert and remove of the same key, so both series do identical logical
   work and the comparison isolates the persistence protocol. *)
let struct_keyspace = 512

let struct_key t op = (t * 2 * struct_keyspace) + ((op lsr 1) mod struct_keyspace)

let run_lfset ~threads ~ops_per_thread =
  let arena = Arena.create ~size_bytes:(256 lsl 20) () in
  let alloc = Alloc.create arena in
  let set = Rewind_pds.Lfset.create ~nbuckets:256 ~nthreads:threads alloc in
  let makespan =
    Sim_threads.run ~threads ~ops_per_thread (fun t op ->
        let k = struct_key t op in
        if op land 1 = 0 then ignore (Rewind_pds.Lfset.insert ~thread:t set k)
        else ignore (Rewind_pds.Lfset.remove ~thread:t set k))
  in
  row ~series:"scaling-lfset" ~threads ~partitions:1
    ~total_ops:(threads * ops_per_thread) ~makespan

let run_phash ~threads ~ops_per_thread =
  let arena = Arena.create ~size_bytes:(256 lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Rewind.Tm.create ~cfg:(Rewind.config_batch ()) alloc ~root_slot:2 in
  let h = Rewind_pds.Phash.create ~nbuckets:256 tm alloc in
  let makespan =
    Sim_threads.run ~threads ~ops_per_thread (fun t op ->
        let k = Int64.of_int (struct_key t op) in
        let txn = Rewind.Tm.begin_txn tm in
        (if op land 1 = 0 then Rewind_pds.Phash.put h txn k 1L
         else ignore (Rewind_pds.Phash.remove h txn k));
        Rewind.Tm.commit tm txn)
  in
  row ~series:"scaling-phash" ~threads ~partitions:1
    ~total_ops:(threads * ops_per_thread) ~makespan

let default_partitions = [ 1; 2; 4; 8 ]

let run ?(threads = 8) ?(partitions = default_partitions)
    ?(txns_per_thread = 400) ?(writes_per_txn = 4) () =
  List.map
    (fun p ->
      run_one ~series:"scaling"
        ~cfg:(Rewind.config_batch ())
        ~threads ~partitions:p ~txns_per_thread ~writes_per_txn)
    partitions
  @ [
      run_one ~series:"scaling-incll" ~cfg:Rewind.config_incll ~threads
        ~partitions:1 ~txns_per_thread ~writes_per_txn;
    ]
  @
  (* Same total op count as one partition row: threads * txns * writes. *)
  let ops_per_thread = txns_per_thread * writes_per_txn in
  [ run_lfset ~threads ~ops_per_thread; run_phash ~threads ~ops_per_thread ]

(* The partitioned batch rows as (partitions, throughput), in run
   order. *)
let batch_series rows =
  List.filter_map
    (fun r ->
      match
        ( Bench_row.label r "series",
          Bench_row.label r "partitions",
          Bench_row.value r "throughput_ops_per_s" )
      with
      | Some "scaling", Some p, Some tput -> Some (int_of_string p, tput)
      | _ -> None)
    rows

(* Throughput ratio of the largest partition count over the smallest —
   the scaling headline (the CI gate expects >= 2x at 8 threads).  Over
   the partitioned batch rows only: the InCLL row is a different
   protocol, not a partition count. *)
let speedup rows =
  match (batch_series rows, List.rev (batch_series rows)) with
  | (_, first) :: _, (_, last) :: _ when first > 0. -> last /. first
  | _ -> 0.
