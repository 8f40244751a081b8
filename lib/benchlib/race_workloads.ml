(* Standard workloads run under the happens-before race detector
   ([rewind check --races]).

   Three shapes, each exercising a different synchronization story:

   - [multi_writer]: the PR-5 partition-scaling workload — concurrent
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

let cells_per_thread = 64

let multi_writer ?(threads = 4) ?(txns_per_thread = 60) ?(writes_per_txn = 4)
    ?(partitions = 1) ~cfg () =
  let arena = Arena.create ~size_bytes:(64 lsl 20) () in
  let rc = Racecheck.attach ~mode:Collect arena in
  Fun.protect
    ~finally:(fun () -> Racecheck.detach rc)
    (fun () ->
      let alloc = Alloc.create arena in
      let cfg = Rewind.with_partitions partitions cfg in
      let tm = Rewind.Tm.create ~cfg alloc ~root_slot:2 in
      let cells =
        Array.init (threads * cells_per_thread) (fun _ ->
            Rewind.Tm.alloc_cell tm)
      in
      ignore
        (Sim_threads.run ~threads ~ops_per_thread:txns_per_thread (fun t op ->
             let txn = Rewind.Tm.begin_txn tm in
             for i = 0 to writes_per_txn - 1 do
               let c =
                 (t * cells_per_thread)
                 + (((op * writes_per_txn) + i) mod cells_per_thread)
               in
               Rewind.Tm.write tm txn ~addr:cells.(c)
                 ~value:(Int64.of_int ((((t * 1000) + op) * 10) + i))
             done;
             Rewind.Tm.commit tm txn));
      rc)

(* Writers plus one checkpointer: fiber [threads] checkpoints every
   [checkpoint_every] of its turns while the writers' transactions are
   in flight. *)
let concurrent_checkpoint ?(threads = 4) ?(txns_per_thread = 40)
    ?(writes_per_txn = 4) ?(checkpoint_every = 8) ?(partitions = 1) ~cfg () =
  let arena = Arena.create ~size_bytes:(64 lsl 20) () in
  let rc = Racecheck.attach ~mode:Collect arena in
  Fun.protect
    ~finally:(fun () -> Racecheck.detach rc)
    (fun () ->
      let alloc = Alloc.create arena in
      let cfg = Rewind.with_partitions partitions cfg in
      let tm = Rewind.Tm.create ~cfg alloc ~root_slot:2 in
      let cells =
        Array.init (threads * cells_per_thread) (fun _ ->
            Rewind.Tm.alloc_cell tm)
      in
      ignore
        (Sim_threads.run ~threads:(threads + 1)
           ~ops_per_thread:txns_per_thread (fun t op ->
             if t = threads then begin
               if op mod checkpoint_every = 0 then Rewind.Tm.checkpoint tm
               else Clock.advance 2_000
             end
             else begin
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
             end));
      rc)

let lockfree_set ?(threads = 4) ?(ops_per_thread = 40) () =
  let arena = Arena.create ~size_bytes:(64 lsl 20) () in
  let rc = Racecheck.attach ~mode:Collect arena in
  Fun.protect
    ~finally:(fun () -> Racecheck.detach rc)
    (fun () ->
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
             else ignore (Rewind_pds.Lfset.remove ~thread:t set k)));
      rc)

let tpcc ?(terminals = 4) ?(txns_per_terminal = 30) () =
  let rc = ref None in
  let r =
    Rewind_tpcc.Workload.run ~terminals ~txns_per_terminal
      ~params:Rewind_tpcc.Datagen.small ~arena_mb:128
      ~on_arena:(fun arena -> rc := Some (Racecheck.attach ~mode:Collect arena))
      ~config:Rewind_tpcc.Workload.Rewind_naive ()
  in
  ignore (r : Rewind_tpcc.Workload.result);
  match !rc with
  | Some rc ->
      Racecheck.detach rc;
      rc
  | None -> assert false

(* The five-transaction mix under the detector: terminals serialise on the
   driver's coarse data lock (race-clean by construction), while the
   home-warehouse partition pinning spreads their log appends over
   [partitions] latches — the detector checks the sharded log's internal
   synchronization under the full mix, deferred deliveries included. *)
let tpcc_mix ?(warehouses = 2) ?(terminals_per_warehouse = 2)
    ?(txns_per_terminal = 25) ?(partitions = 1) () =
  let rc = ref None in
  let r, _db =
    Rewind_tpcc.Workload.run_mix ~warehouses ~terminals_per_warehouse
      ~txns_per_terminal ~params:Rewind_tpcc.Datagen.micro ~arena_mb:128
      ~partitions
      ~on_arena:(fun arena -> rc := Some (Racecheck.attach ~mode:Collect arena))
      ()
  in
  ignore (r : Rewind_tpcc.Workload.mix_result);
  match !rc with
  | Some rc ->
      Racecheck.detach rc;
      rc
  | None -> assert false
