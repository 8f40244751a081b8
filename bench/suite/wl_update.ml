(* update: the logging fast path with no application work.

   Closed loop: [fibers] simulated threads, each issuing its next
   transaction when the previous one commits.  A transaction writes
   [writes] words among its fiber's [cells] private cells, so writers never
   share data — only the log.  Two log partitions, so each partition's
   latch is shared by four writers; fiber 0 also checkpoints every
   [checkpoint_every] of its transactions.  Nearly all the work lands in
   core (Tm, Log) and nvm (line writes, fences, latch waiting): log,
   commit and latch changes show here first. *)

open Rewind_nvm
module Tm = Rewind.Tm
module Rng = Rewind_tpcc.Rng

let fibers = 8
let cells = 64
let writes = 4
let checkpoint_every = 500
let cfg = Rewind.with_partitions 2 (Rewind.config_batch ())
let root_slot = 2

let prepare ~tiny ~seed =
  let txns = if tiny then 200 else 12_000 in
  let arena = Arena.create ~size_bytes:((if tiny then 8 else 16) lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let addr =
    Array.init fibers (fun _ -> Array.init cells (fun _ -> Alloc.alloc alloc 8))
  in
  (* inputs: fiber f's transaction i writes value plan_val.(k) to cell
     plan_cell.(k), for k in the [writes] slots from ((f*txns)+i)*writes *)
  let rng = Rng.create seed and d = Round.digest () in
  let n = fibers * txns * writes in
  let plan_cell, plan_val = Round.random_writes rng d ~n ~cells in
  fun layer ->
    Layer.bind layer arena;
    let model = Array.make_matrix fibers cells 0 in
    let lat = Array.make (fibers * txns) 0 in
    let m = Round.meter () in
    let commits0 = Tm.commits tm in
    let txn f i =
      let base = ((f * txns) + i) * writes in
      Layer.op layer "update.txn" (fun () ->
          let c = Clock.start () in
          let txn =
            Layer.span layer "core.begin" (fun () ->
                Tm.begin_txn ~home:(f mod cfg.partitions) tm)
          in
          for k = base to base + writes - 1 do
            Layer.span layer "core.write" (fun () ->
                Tm.write tm txn
                  ~addr:addr.(f).(plan_cell.(k))
                  ~value:(Int64.of_int plan_val.(k)))
          done;
          Layer.span layer "core.commit" ~keep:true (fun () ->
              Tm.commit tm txn);
          lat.((f * txns) + i) <- Clock.elapsed c);
      for k = base to base + writes - 1 do
        model.(f).(plan_cell.(k)) <- plan_val.(k)
      done;
      if f = 0 && (i + 1) mod checkpoint_every = 0 then
        Layer.span layer "core.checkpoint" (fun () -> Tm.checkpoint tm)
    in
    let makespan =
      Round.metered m layer arena (fun () ->
          Sim_threads.run ~threads:fibers ~ops_per_thread:txns txn)
    in
    let commits = Tm.commits tm - commits0 in
    let mismatches () =
      let bad = ref 0 in
      Array.iteri
        (fun f row ->
          Array.iteri
            (fun j a ->
              if Arena.read arena a <> Int64.of_int model.(f).(j) then incr bad)
            row)
        addr;
      !bad
    in
    let failed = mismatches () in
    let nvm_bytes = Alloc.cursor alloc in
    (* power failure with two transactions in flight: recovery must keep
       every committed write and nothing of theirs *)
    let t1 = Tm.begin_txn ~home:0 tm and t2 = Tm.begin_txn ~home:1 tm in
    for j = 0 to writes - 1 do
      Tm.write tm t1 ~addr:addr.(0).(j) ~value:(-1L);
      Tm.write tm t2 ~addr:addr.(1).(j) ~value:(-2L)
    done;
    let _, _, rcv = Round.crash_recover layer arena ~cfg ~root_slot in
    let failed = failed + mismatches () in
    {
      Round.attempted = fibers * txns;
      failed;
      lat_ns = lat;
      ops_per_sim_s = Round.throughput (fibers * txns) makespan;
      meter = m;
      commits;
      recoveries = [ rcv ];
      nvm_bytes;
      digest = Round.digest_value d;
      extra = [];
    }

let workload = { Round.name = "update"; prepare }
