(* The Section 5.3 benchmark driver: ten terminals issuing new-order
   transactions, one terminal per district, in the paper's four
   configurations:

   - non-recoverable NVM B+-trees with the naive layout;
   - naive layout over REWIND (one shared log);
   - co-designed (per-district-tree) layout over REWIND (shared log);
   - co-designed layout over REWIND with a distributed log: one log
     partition per terminal, each terminal's transactions pinned to its
     own.

   Terminals run as {!Sim_threads} fibers; each carries its own simulated
   clock and the run's duration is the slowest terminal.  Contention appears
   through the Sim_mutex release-time model: the shared data lock in the
   naive layout, the per-district locks in the optimised layout, and
   REWIND's internal log latch.

   The terminal<->district pinning keeps terminals from racing on the same
   B+-tree nodes: with the naive layout all terminals share the trees and
   must take the single data lock; with the optimised layout each
   terminal's district trees are private to it. *)

open Rewind_nvm

type configuration =
  | Nvm_naive           (* persistent, not recoverable *)
  | Rewind_naive        (* naive data structures over REWIND *)
  | Rewind_opt          (* co-designed layout, shared log *)
  | Rewind_opt_dlog     (* co-designed layout, one log partition per terminal *)

let pp_configuration ppf c =
  Fmt.string ppf
    (match c with
    | Nvm_naive -> "Simple NVM B+Trees"
    | Rewind_naive -> "REWIND Naive Data Structure"
    | Rewind_opt -> "REWIND Opt. Data Structure"
    | Rewind_opt_dlog -> "REWIND Opt. Data Structure D.Log")

type result = {
  committed : int;
  aborted : int;  (* true aborts: the spec's 1 % invalid-item rollbacks *)
  retried : int;  (* conflict retries: lock contention, backed off and rerun *)
  sim_ns : int;   (* slowest terminal's simulated time *)
  tpm : float;    (* new-order transactions per simulated minute *)
}

(* Conflict handling: a terminal that finds the shared data lock busy
   treats it as a conflict — it backs off for a bounded, exponentially
   growing interval of simulated time and retries, rather than queueing.
   Retries are counted separately from true aborts (the invalid-item
   rollbacks, which are a property of the request, not of contention, and
   are never retried).  After [max_conflict_retries] failed tries the
   terminal falls back to a blocking acquire, so contention can delay a
   transaction but never kill it — the groundwork for an open-loop
   generator, where the retry queue becomes visible as latency. *)
let max_conflict_retries = 5
let conflict_backoff_ns = 2_000

let tm_config = { Rewind.config_1l_nfp with variant = Rewind.Log.Batch 8 }

(* The manager's footprint starts at root slot 3 (ten log partitions end
   at slot 24, within the arena's 63). *)
let shared_root = 3

let setup ~config ~params arena =
  let alloc = Alloc.create arena in
  let layout =
    match config with
    | Nvm_naive | Rewind_naive -> Schema.Naive
    | Rewind_opt | Rewind_opt_dlog -> Schema.Optimized
  in
  (* Load through raw durable stores, then run in the measured mode. *)
  let db = Schema.create ~layout Rewind_pds.Btree.Direct_nvm alloc in
  Datagen.load ~params db 0;
  (alloc, db)


let run ?(terminals = Schema.districts) ?(txns_per_terminal = 1000)
    ?(params = Datagen.small) ?(arena_mb = 256) ?(on_arena = ignore) ~config
    () =
  let arena = Arena.create ~size_bytes:(arena_mb lsl 20) () in
  (* Instrumentation hook: the race detector (and other trace consumers)
     attach here, before any load or measured work touches the arena. *)
  on_arena arena;
  let alloc, base_db = setup ~config ~params arena in
  let tm =
    let create cfg = Some (Rewind.Tm.create ~cfg alloc ~root_slot:shared_root) in
    match config with
    | Nvm_naive -> None
    | Rewind_naive | Rewind_opt -> create tm_config
    | Rewind_opt_dlog -> create (Rewind.with_partitions terminals tm_config)
  in
  (* Lock model: the naive REWIND implementation shares every tree and
     takes one coarse lock per transaction; the co-designed layouts give
     each terminal its own district trees, leaving REWIND's internal log
     latch as the only shared resource (with a distributed log, each
     terminal's partition latch is its own).  The non-recoverable NVM
     configuration is run with the fine-grained latching the paper
     assumes for it. *)
  let data_lock = Sim_mutex.create () in
  let committed = ref 0 and aborted = ref 0 and retried = ref 0 in
  (* Per-terminal state; terminals are simulated threads scheduled in
     simulated-time order (one per district, as ten TPC-C terminals). *)
  let rngs = Array.init terminals (fun t -> Rng.create (1000 + t)) in
  let dbs =
    Array.init terminals (fun _ ->
        match tm with
        | None -> base_db
        | Some tm ->
            Schema.rebind ~alloc base_db (Rewind_pds.Btree.Logged tm))
  in
  (* a distributed log pins each terminal to its own partition *)
  let home term = if config = Rewind_opt_dlog then Some term else None in
  let sim_ns =
    Sim_threads.run ~threads:terminals ~ops_per_thread:txns_per_terminal
      (fun term op ->
        let rng = rngs.(term) in
        let district = 1 + (term mod Schema.districts) in
        let db = dbs.(term) in
        let rq = Neworder.gen_request ~district rng ~items:params.Datagen.items in
        let exec () =
          match tm with
          | None -> Neworder.run_raw db rq
          | Some tm -> Neworder.run_transactional ?home:(home term) db tm rq
        in
        let rec exec_contended attempt =
          if Sim_mutex.try_lock data_lock then
            Fun.protect ~finally:(fun () -> Sim_mutex.unlock data_lock) exec
          else if attempt < max_conflict_retries then begin
            incr retried;
            Clock.advance (conflict_backoff_ns lsl min attempt 4);
            exec_contended (attempt + 1)
          end
          else Sim_mutex.with_lock data_lock exec
        in
        let outcome =
          match config with
          | Rewind_naive -> exec_contended 0
          | Nvm_naive | Rewind_opt | Rewind_opt_dlog -> exec ()
        in
        (match outcome with
        | Neworder.Committed -> incr committed
        | Neworder.Aborted -> incr aborted);
        (* No-force REWIND leaves committed data in the cache, where the
           unlogged trees paid a non-temporal store for each word: every
           REWIND terminal makes its work durable before its window
           closes, on its own clock. *)
        if tm <> None && op = txns_per_terminal - 1 then begin
          Arena.flush_all arena;
          Arena.fence arena
        end)
  in
  let minutes = float_of_int sim_ns /. 60e9 in
  {
    committed = !committed;
    aborted = !aborted;
    retried = !retried;
    sim_ns;
    tpm =
      (if minutes > 0. then float_of_int (!committed + !aborted) /. minutes
       else 0.);
  }

(* Consistency probes used by tests: every committed new-order must leave
   matching orders/new-order/order-line entries and a consistent
   d_next_o_id. *)
let check_consistency db =
  let ok = ref true in
  for w = 1 to db.Schema.warehouses do
    for d = 1 to Schema.districts do
      let drow = Schema.district_row db w d in
      let next = Int64.to_int (Schema.row_get db drow Schema.d_next_o_id) in
      for o = 1 to next - 1 do
        match
          Rewind_pds.Btree.lookup (Schema.order_tree db w d)
            (Schema.key_order db w d o)
        with
        | None -> ok := false
        | Some orow_v ->
            let orow = Int64.to_int orow_v in
            let cnt = Int64.to_int (Schema.row_get db orow Schema.o_ol_cnt) in
            for ol = 1 to cnt do
              if
                Rewind_pds.Btree.lookup
                  (Schema.order_line_tree db w d)
                  (Schema.key_order_line db w d o ol)
                = None
              then ok := false
            done
      done
    done
  done;
  !ok

(* Mixed-workload invariants, checked on top of [check_consistency] and
   [Payment.check_consistency]: an order carries a carrier id exactly when
   its new-order entry is gone, and a delivered order has every line
   stamped with a delivery date. *)
let check_delivery_consistency db =
  let ok = ref true in
  for w = 1 to db.Schema.warehouses do
    for d = 1 to Schema.districts do
      let drow = Schema.district_row db w d in
      let next = Int64.to_int (Schema.row_get db drow Schema.d_next_o_id) in
      for o = 1 to next - 1 do
        match
          Rewind_pds.Btree.lookup (Schema.order_tree db w d)
            (Schema.key_order db w d o)
        with
        | None -> ok := false
        | Some orow_v ->
            let orow = Int64.to_int orow_v in
            let delivered =
              Schema.row_get db orow Schema.o_carrier_id <> 0L
            in
            let queued =
              Rewind_pds.Btree.mem
                (Schema.new_order_tree db w d)
                (Schema.key_order db w d o)
            in
            if delivered = queued then ok := false;
            if delivered then begin
              let cnt = Int64.to_int (Schema.row_get db orow Schema.o_ol_cnt) in
              for ol = 1 to cnt do
                match
                  Rewind_pds.Btree.lookup
                    (Schema.order_line_tree db w d)
                    (Schema.key_order_line db w d o ol)
                with
                | None -> ok := false
                | Some lrow ->
                    if
                      Schema.row_get db (Int64.to_int lrow)
                        Schema.ol_delivery_d = 0L
                    then ok := false
              done
            end
      done
    done
  done;
  !ok

let check_mix_consistency db =
  check_consistency db
  && Payment.check_consistency db
  && check_delivery_consistency db

(* -- the five-transaction closed-loop driver ----------------------------

   [run_mix] drives the full mix over one REWIND manager whose log is
   partitioned [partitions] ways, pinning every transaction to its home
   warehouse's partition ([(w-1) mod partitions]).  Terminals share one
   coarse data lock (the naive contention model) so the driver is
   race-clean by construction — the race-detector CI leg runs exactly
   this; the open-loop bench layers per-warehouse locking on top of the
   same transaction bodies. *)

type mix_result = {
  mix_committed : int;   (* all five types, incl. enqueued deliveries *)
  mix_aborted : int;     (* invalid-item rollbacks *)
  mix_retried : int;     (* data-lock conflicts backed off and rerun *)
  mix_new_orders : int;  (* committed new-orders (the tpmC numerator) *)
  mix_deliveries : int;  (* deferred delivery transactions executed *)
  mix_sim_ns : int;
  mix_tpmc : float;      (* committed new-orders per simulated minute *)
  mix_consistent : bool;
}

let run_mix ?(warehouses = 2) ?(terminals_per_warehouse = 2)
    ?(txns_per_terminal = 100) ?(params = Datagen.micro) ?(arena_mb = 256)
    ?(partitions = 1) ?(layout = Schema.Optimized) ?cfg ?(on_arena = ignore)
    () =
  let cfg =
    match cfg with
    | Some c -> c
    | None -> Rewind.with_partitions partitions tm_config
  in
  let arena = Arena.create ~size_bytes:(arena_mb lsl 20) () in
  on_arena arena;
  let alloc = Alloc.create arena in
  let db = Schema.create ~layout ~warehouses Rewind_pds.Btree.Direct_nvm alloc in
  Datagen.load ~params db 0;
  let tm = Rewind.Tm.create ~cfg alloc ~root_slot:shared_root in
  let db = Schema.rebind db (Rewind_pds.Btree.Logged tm) in
  let queue = Delivery.queue_create () in
  let data_lock = Sim_mutex.create () in
  let committed = ref 0 and aborted = ref 0 and retried = ref 0 in
  let new_orders = ref 0 and deliveries = ref 0 in
  let terminals = warehouses * terminals_per_warehouse in
  let rngs = Array.init terminals (fun t -> Rng.create (2000 + t)) in
  let home_of w = (w - 1) mod cfg.Rewind.Tm.partitions in
  let sim_ns =
    Sim_threads.run ~threads:terminals ~ops_per_thread:txns_per_terminal
      (fun term _ ->
        let rng = rngs.(term) in
        let warehouse = 1 + (term mod warehouses) in
        let home = home_of warehouse in
        let rq =
          Mix.gen ~warehouse ~customers:params.Datagen.customers_per_district
            rng ~items:params.Datagen.items
        in
        let exec () =
          (match Mix.execute ~home db tm ~queue rq with
          | Mix.Committed ->
              incr committed;
              if Mix.is_new_order rq then incr new_orders
          | Mix.Aborted -> incr aborted);
          (* run any deferred deliveries promptly, still inside the
             data lock: each is its own transaction *)
          deliveries := !deliveries + Mix.drain_deliveries ~home db tm queue
        in
        let rec exec_contended attempt =
          if Sim_mutex.try_lock data_lock then
            Fun.protect ~finally:(fun () -> Sim_mutex.unlock data_lock) exec
          else if attempt < max_conflict_retries then begin
            incr retried;
            Clock.advance (conflict_backoff_ns lsl min attempt 4);
            exec_contended (attempt + 1)
          end
          else Sim_mutex.with_lock data_lock exec
        in
        exec_contended 0)
  in
  let minutes = float_of_int sim_ns /. 60e9 in
  ( {
      mix_committed = !committed;
      mix_aborted = !aborted;
      mix_retried = !retried;
      mix_new_orders = !new_orders;
      mix_deliveries = !deliveries;
      mix_sim_ns = sim_ns;
      mix_tpmc =
        (if minutes > 0. then float_of_int !new_orders /. minutes else 0.);
      mix_consistent = check_mix_consistency db;
    },
    db )
