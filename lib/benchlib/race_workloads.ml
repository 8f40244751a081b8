(* Standard workloads run under the happens-before race detector
   ([rewind check --races]).

   Four shapes, each exercising a different synchronization story:

   - [multi_writer]: the partition-scaling writers — concurrent
     fibers running short transactions against private cells through one
     shared manager.  The only shared state is the partitioned log (per
     partition latches), the global LSN / transaction-id atomics, and
     the allocator; all of it must be fully synchronized.

   - [concurrent_checkpoint]: writers as above plus one fiber issuing
     cache-consistent checkpoints (Section 4.6) in the middle of their
     transactions.  The checkpoint's [flush_all] writes back other
     fibers' user lines mid-transaction — race-free only because every
     such store is WAL-covered, which is exactly the exemption the
     detector implements.

   - [tpcc]: the Section 5.3 new-order driver in the naive-REWIND
     configuration, where every terminal serialises on the shared data
     lock.  (The co-designed configurations run the shared stock tree
     *unsynchronized* by design — Section 4.7 leaves user-data locking
     to the programmer — so only the naive configuration is expected to
     be race-clean.)

   - [lockfree_set]: concurrent inserts/removes on overlapping keys of
     the durable lock-free set — no latches at all.  Every pointer
     update is a [Sim_atomic] word CAS whose bracket the detector sees,
     and every link's CAS-then-flush is registered as a linked-durable
     cover, so the workload is race-clean despite fibers flushing each
     other's lines (helping, traversal-exit flushes).

   Each workload returns the detached detector; callers read
   {!Rewind_analysis.Racecheck.races} / [report] off it. *)

open Rewind_nvm
module Racecheck = Rewind_analysis.Racecheck

(* [f] over a fresh 64 MiB arena under a collecting detector. *)
let detected f =
  let arena = Arena.create ~size_bytes:(64 lsl 20) () in
  let rc = Racecheck.attach ~mode:Collect arena in
  Fun.protect
    ~finally:(fun () -> Racecheck.detach rc)
    (fun () ->
      f arena;
      rc)

(* The partition-scaling writers ({!Scaling_bench.writers}). *)
let multi_writer ?(threads = 4) ?(txns_per_thread = 60) ?(writes_per_txn = 4)
    ?(partitions = 1) ~cfg () =
  detected (fun arena ->
      let _, txn =
        Scaling_bench.writers arena ~cfg ~partitions ~threads ~writes_per_txn
      in
      ignore (Sim_threads.run ~threads ~ops_per_thread:txns_per_thread txn))

(* Writers plus one checkpointer: fiber [threads] checkpoints every
   [checkpoint_every] of its turns while the writers' transactions are
   in flight. *)
let concurrent_checkpoint ?(threads = 4) ?(txns_per_thread = 40)
    ?(writes_per_txn = 4) ?(checkpoint_every = 8) ?(partitions = 1) ~cfg () =
  detected (fun arena ->
      let tm, txn =
        Scaling_bench.writers arena ~cfg ~partitions ~threads ~writes_per_txn
      in
      ignore
        (Sim_threads.run ~threads:(threads + 1)
           ~ops_per_thread:txns_per_thread (fun t op ->
             if t < threads then txn t op
             else if op mod checkpoint_every = 0 then Rewind.Tm.checkpoint tm
             else Clock.advance 2_000)))

let lockfree_set ?(threads = 4) ?(ops_per_thread = 40) () =
  detected (fun arena ->
      let alloc = Alloc.create arena in
      let set =
        Rewind_pds.Lfset.create ~nbuckets:16 ~nthreads:(max 1 threads) alloc
      in
      (* Deliberately overlapping keys across fibers: contended CAS
         chains, helping, and duplicate/absent answers all occur. *)
      ignore
        (Sim_threads.run ~threads ~ops_per_thread (fun t op ->
             let k = ((t * 7) + op) mod 24 in
             if op land 1 = 0 then
               ignore (Rewind_pds.Lfset.insert ~thread:t set k)
             else ignore (Rewind_pds.Lfset.remove ~thread:t set k))))

(* [run ~on_arena] with a collecting detector attached to the arena it
   creates. *)
let attached run =
  let rc = ref None in
  run ~on_arena:(fun arena -> rc := Some (Racecheck.attach ~mode:Collect arena));
  let rc = Option.get !rc in
  Racecheck.detach rc;
  rc

let tpcc ?(terminals = 4) ?(txns_per_terminal = 30) () =
  attached (fun ~on_arena ->
      ignore
        (Rewind_tpcc.Workload.run ~terminals ~txns_per_terminal
           ~params:Rewind_tpcc.Datagen.small ~arena_mb:128 ~on_arena
           ~config:Rewind_tpcc.Workload.Rewind_naive ()
          : Rewind_tpcc.Workload.result))

(* The five-transaction mix under the detector: terminals serialise on the
   driver's coarse data lock (race-clean by construction), while the
   home-warehouse partition pinning spreads their log appends over
   [partitions] latches — the detector checks the sharded log's internal
   synchronization under the full mix, deferred deliveries included. *)
let tpcc_mix ?(warehouses = 2) ?(terminals_per_warehouse = 2)
    ?(txns_per_terminal = 25) ?(partitions = 1) () =
  attached (fun ~on_arena ->
      ignore
        (Rewind_tpcc.Workload.run_mix ~warehouses ~terminals_per_warehouse
           ~txns_per_terminal ~params:Rewind_tpcc.Datagen.micro ~arena_mb:128
           ~partitions ~on_arena ()
          : Rewind_tpcc.Workload.mix_result * _))
