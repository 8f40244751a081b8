(* recover: the only workload that crashes as part of its work.

   Cycles on one arena: [txns] committed transactions of [writes] writes
   over [cells] cells, two more left in flight, then a power failure
   ([Arena.crash]) and restart ([Alloc.recover], [Tm.attach]).  No
   checkpoints, so each recovery analyses, redoes and clears a whole
   cycle's log and undoes the two losers.  After every restart each cell
   must hold the value of its last committed write.  Recovery and crash
   simulation dominate; nothing else in the benchmark crashes this
   often. *)

open Rewind_nvm
module Tm = Rewind.Tm
module Rng = Rewind_tpcc.Rng

let cells = 4_096
let writes = 8
let cfg = Rewind.config_1l_nfp
let root_slot = 2

let prepare ~corrupt ~tiny ~seed =
  let cycles = if tiny then 2 else 10 and txns = if tiny then 100 else 2_000 in
  let arena = Arena.create ~size_bytes:((if tiny then 8 else 256) lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let addr = Array.init cells (fun _ -> Alloc.alloc alloc 8) in
  (* inputs: per cycle, [txns] committed transactions then two in flight,
     [writes] (cell, value) pairs each *)
  let per_cycle = (txns + 2) * writes in
  let rng = Rng.create seed and d = Round.digest () in
  let n = cycles * per_cycle in
  let plan_cell, plan_val = Round.random_writes rng d ~n ~cells in
  fun layer ->
    Layer.bind layer arena;
    let model = Array.make cells 0 in
    let lat = Array.make (cycles * txns) 0 in
    let m = Round.meter () in
    let alloc = ref alloc and tm = ref tm in
    let commits = ref 0 and failed = ref 0 and nvm_bytes = ref 0 in
    let txn_writes tm txn base =
      for k = base to base + writes - 1 do
        Layer.span layer "core.write" (fun () ->
            Tm.write tm txn ~addr:addr.(plan_cell.(k))
              ~value:(Int64.of_int plan_val.(k)))
      done
    in
    let txn tm cy i =
      let base = (cy * per_cycle) + (i * writes) in
      Layer.op layer "recover.txn" (fun () ->
          let c = Clock.start () in
          let txn = Layer.span layer "core.begin" (fun () -> Tm.begin_txn tm) in
          txn_writes tm txn base;
          Layer.span layer "core.commit" ~keep:true (fun () ->
              Tm.commit tm txn);
          lat.((cy * txns) + i) <- Clock.elapsed c);
      for k = base to base + writes - 1 do
        model.(plan_cell.(k)) <- plan_val.(k)
      done
    in
    let cycle cy =
      let tm0 = !tm in
      let commits0 = Tm.commits tm0 in
      Round.metered m layer arena (fun () ->
          for i = 0 to txns - 1 do
            txn tm0 cy i
          done);
      commits := !commits + Tm.commits tm0 - commits0;
      nvm_bytes := Alloc.cursor !alloc;
      let loser1 = Tm.begin_txn tm0 and loser2 = Tm.begin_txn tm0 in
      txn_writes tm0 loser1 ((cy * per_cycle) + (txns * writes));
      txn_writes tm0 loser2 ((cy * per_cycle) + ((txns + 1) * writes));
      let alloc1, tm1, rcv = Round.crash_recover layer arena ~cfg ~root_slot in
      alloc := alloc1;
      tm := tm1;
      (* the negative test's injected fault: a model that disagrees with
         what was committed must be reported *)
      if corrupt && cy = 0 then model.(0) <- model.(0) + 1;
      Array.iteri
        (fun j a ->
          if Arena.read arena a <> Int64.of_int model.(j) then incr failed)
        addr;
      rcv
    in
    let recoveries = List.init cycles Fun.id |> List.map cycle in
    {
      Round.attempted = cycles * txns;
      failed = !failed;
      lat_ns = lat;
      ops_per_sim_s = Round.throughput (cycles * txns) m.sim_ns;
      meter = m;
      commits = !commits;
      recoveries;
      nvm_bytes = !nvm_bytes;
      digest = Round.digest_value d;
      extra = [];
    }

let workload = { Round.name = "recover"; prepare = prepare ~corrupt:false }
