(* read: the load side of the same nvm and pds layers, with little
   logging.

   Closed loop, one client, over a REWIND-logged B+-tree bulk-loaded with
   keys 1..[keys] during set-up.  Each operation picks a NURand-skewed key:
   90 % point lookups and 5 % ranges of [range_len] keys over 1..[key_space]
   (a tenth of which is absent), 5 % single-key upsert transactions over
   the loaded keys; a checkpoint every [checkpoint_every] operations.  Every
   result is checked against an OCaml model.  A write-path gain that costs
   loads or traversal shows up here as a regression. *)

open Rewind_nvm
module Tm = Rewind.Tm
module Btree = Rewind_pds.Btree
module Rng = Rewind_tpcc.Rng

let range_len = 50
let checkpoint_every = 5_000
let cfg = Rewind.config_batch ()
let root_slot = 2

type kind = Lookup | Range | Upsert

let kind_name = function
  | Lookup -> "read.lookup"
  | Range -> "read.range"
  | Upsert -> "read.upsert"

let prepare ~tiny ~seed =
  let keys = if tiny then 2_000 else 100_000 in
  (* half a checkpoint interval past the last checkpoint, so the final
     crash finds a log to recover *)
  let ops = if tiny then 3_000 else 302_500 in
  let key_space = keys + (keys / 10) in
  let arena = Arena.create ~size_bytes:((if tiny then 8 else 16) lsl 20) () in
  let alloc = Alloc.create arena in
  let tm = Tm.create ~cfg alloc ~root_slot in
  let bt = Btree.create (Btree.Logged tm) alloc in
  let rng = Rng.create seed and d = Round.digest () in
  (* model.(k): the value bound to key k, -1 when absent *)
  let model = Array.make (key_space + 1) (-1) in
  let bindings =
    List.init keys (fun i ->
        let v = Int64.to_int (Rng.next rng) land 0xFFFF_FFFF in
        model.(i + 1) <- v;
        Round.feed d v;
        (Int64.of_int (i + 1), Int64.of_int v))
  in
  Tm.atomically tm (fun txn -> Btree.bulk_load bt txn bindings);
  Tm.checkpoint tm;
  (* the mix sits at fixed positions (every 20th operation an upsert,
     every 20th a range) so that every seed does the same amount of each
     kind of work, and between checkpoints; only keys and values vary *)
  let kind i = match i mod 20 with 0 -> Upsert | 10 -> Range | _ -> Lookup in
  let plan_key = Array.make ops 0 and plan_val = Array.make ops 0 in
  for i = 0 to ops - 1 do
    (* upserts rewrite loaded keys in place, so each logs the same work *)
    plan_key.(i) <-
      Rng.nurand rng 8191 1 (if kind i = Upsert then keys else key_space);
    plan_val.(i) <- Int64.to_int (Rng.next rng) land 0xFFFF_FFFF;
    Round.feed d plan_key.(i);
    Round.feed d plan_val.(i)
  done;
  fun layer ->
    Layer.bind layer arena;
    let lat = Array.make ops 0 in
    let m = Round.meter () in
    let failed = ref 0 in
    let commits0 = Tm.commits tm in
    let expect_range lo hi =
      let acc = ref [] in
      for k = min hi key_space downto lo do
        if model.(k) >= 0 then
          acc := (Int64.of_int k, Int64.of_int model.(k)) :: !acc
      done;
      !acc
    in
    let op i =
      let key = plan_key.(i) and v = plan_val.(i) in
      let k64 = Int64.of_int key and last = key + range_len - 1 in
      let timed f =
        Layer.op layer (kind_name (kind i)) (fun () ->
            let c = Clock.start () in
            let r = f () in
            lat.(i) <- Clock.elapsed c;
            r)
      in
      match kind i with
      | Lookup ->
          let r =
            timed (fun () ->
                Layer.span layer "pds.btree_lookup" (fun () ->
                    Btree.lookup bt k64))
          in
          if Option.fold ~none:(-1) ~some:Int64.to_int r <> model.(key) then
            incr failed
      | Range ->
          let r =
            timed (fun () ->
                Layer.span layer "pds.btree_range" (fun () ->
                    Btree.range bt ~lo:k64 ~hi:(Int64.of_int last)))
          in
          if r <> expect_range key last then incr failed
      | Upsert ->
          timed (fun () ->
              let txn =
                Layer.span layer "core.begin" (fun () -> Tm.begin_txn tm)
              in
              Layer.span layer "pds.btree_upsert" (fun () ->
                  Btree.insert bt txn k64 (Int64.of_int v));
              Layer.span layer "core.commit" ~keep:true (fun () ->
                  Tm.commit tm txn));
          model.(key) <- v
    in
    Round.metered m layer arena (fun () ->
        for i = 0 to ops - 1 do
          op i;
          if (i + 1) mod checkpoint_every = 0 then
            Layer.span layer "core.checkpoint" (fun () -> Tm.checkpoint tm)
        done);
    let commits = Tm.commits tm - commits0 in
    let nvm_bytes = Alloc.cursor alloc in
    (* power failure with two upserts in flight: recovery must keep every
       committed upsert and nothing of theirs *)
    let t1 = Tm.begin_txn tm and t2 = Tm.begin_txn tm in
    Btree.insert bt t1 1L (-1L);
    Btree.insert bt t2 (Int64.of_int keys) (-2L);
    let alloc, tm, rcv = Round.crash_recover layer arena ~cfg ~root_slot in
    let bt =
      Btree.attach (Btree.Logged tm) alloc ~root_cell:(Btree.root_cell bt)
    in
    if Btree.bindings bt <> expect_range 1 key_space then incr failed;
    {
      Round.attempted = ops;
      failed = !failed;
      lat_ns = lat;
      ops_per_sim_s = Round.throughput ops m.sim_ns;
      meter = m;
      commits;
      recoveries = [ rcv ];
      nvm_bytes;
      digest = Round.digest_value d;
      extra = [];
    }

let workload = { Round.name = "read"; prepare }
