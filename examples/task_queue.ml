(* A crash-safe task queue built from the extension modules: a persistent
   FIFO (Pqueue) per log partition of one transaction manager, with the
   autotuner watching the workload.  A producer enqueues work and a
   consumer marks results in a persistent table — each consumption is one
   transaction, so a task is never both lost and unprocessed, even across
   the power failure this demo injects.

     dune exec examples/task_queue.exe                                     *)

open Rewind_nvm
open Rewind
open Rewind_pds

let partitions = 2

let () =
  let arena = Arena.create ~size_bytes:(64 lsl 20) () in
  let alloc = Alloc.create arena in
  let cfg = Rewind.with_partitions partitions Tm.default_config in
  let tm = Tm.create ~cfg alloc ~root_slot:4 in
  let tuner = Autotune.create () in

  (* One queue per partition, one shared result table; each transaction
     is pinned to its queue's partition. *)
  let queues = Array.init partitions (fun _ -> Pqueue.create tm alloc) in
  let results = Ptable.create alloc ~slots:256 in

  (* Produce 100 tasks, round-robin over the partitions. *)
  for task = 1 to 100 do
    let p = task mod partitions in
    Tm.atomically ~home:p tm (fun txn ->
        Autotune.on_begin tuner txn;
        Pqueue.enqueue queues.(p) txn (Int64.of_int task);
        Autotune.on_write tuner txn;
        Autotune.on_commit tuner txn)
  done;
  Fmt.pr "produced 100 tasks (%d + %d queued)@."
    (Pqueue.length queues.(0)) (Pqueue.length queues.(1));

  (* Consume, crashing part-way. *)
  Arena.arm_crash arena ~after:500;
  let consumed = ref 0 in
  (try
     for _ = 1 to 100 do
       let p = !consumed mod partitions in
       Tm.atomically ~home:p tm (fun txn ->
           match Pqueue.dequeue queues.(p) txn with
           | Some task ->
               Ptable.set results tm txn (Int64.to_int task mod 256) task
           | None -> ());
       incr consumed
     done;
     Arena.disarm_crash arena
   with Arena.Crash -> Fmt.pr "*** crash after %d consume transactions ***@." !consumed);

  (* Recovery merges every partition's log. *)
  let alloc = Alloc.recover arena in
  let tm = Tm.attach ~cfg alloc ~root_slot:4 in
  let queues =
    Array.init partitions (fun p ->
        Pqueue.attach tm alloc
          ~head_cell:(Pqueue.head_cell queues.(p))
          ~tail_cell:(Pqueue.tail_cell queues.(p)))
  in
  (* Invariant: every task is either still queued or recorded — none lost,
     none duplicated. *)
  let queued = Array.fold_left (fun a q -> a + Pqueue.length q) 0 queues in
  let recorded = ref 0 in
  for i = 0 to 255 do
    if Ptable.get results i <> 0L then incr recorded
  done;
  Fmt.pr "after recovery: %d queued + %d recorded = %d@." queued !recorded
    (queued + !recorded);
  assert (queued + !recorded = 100);
  Array.iter (fun q -> assert (Pqueue.well_formed q)) queues;
  Fmt.pr "no task lost or duplicated across the crash.@."
