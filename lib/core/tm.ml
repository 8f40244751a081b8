(* The transaction recovery manager (Section 4).

   Four configurations, as in the paper's design space:
   - policy: [Force] (user updates reach NVM with non-temporal stores; the
     transaction's log records are cleared at commit; two-phase recovery)
     or [No_force] (user updates are cached; checkpoints clear the log;
     three-phase recovery with a redo pass);
   - layers: [One_layer] (the bucket/ADLL log holds user records directly;
     no transaction table is maintained while logging) or [Two_layer] (the
     AAVLT indexes records by transaction and acts as the persistent
     transaction table; the bucket log underneath holds only the AAVLT's
     own pending writes).

   The log implementation (Simple / Optimized / Batch) is picked
   independently, giving the paper's Simple/Optimized/Batch REWIND
   versions.

   In-cache-line logging ([incll]) is not one of them: it keeps no
   write-ahead log at all.  Every operation with an InCLL meaning
   delegates to {!Incll}, which owns that protocol's transaction layer,
   and the WAL-only operations refuse it.

   Partitioned logging (Section 4.7 / Section 5's multithreaded results):
   the log can be sharded into [partitions] independent partitions, each a
   full recoverable bucketed-ADLL log with its own latch, current-bucket
   cursor, group-flush state and Batch last-persistent index — plus its
   own two-layer AAVLT and transaction table.  A transaction is pinned to
   a *home partition* by its id (round-robin), so the append fast path
   touches only partition-local state; the LSN counter stays one process-
   wide instrumented atomic ({!Sim_atomic}), so a single global order over all records survives.
   Recovery merges, reading the log once.  The per-partition work runs
   on one recovery fiber per partition ({!Sim_threads.fork_join}): each
   partition's structural attach, then its analysis decode.  The fibers
   join before the k-way merge by LSN that turns the partition streams
   into one stream in global LSN order, from which analysis rebuilds each
   home partition's transaction table; redo replays that stream, undo
   walks it backwards (two-layer: each loser's back-chain within its home
   partition) touching only losers' records, and clearing follows.  Those
   three stay serial: their correctness depends on the global LSN order.

   Clearing many transactions at once follows one rule, the durable LSN
   horizon H = min(next LSN, first LSN of every unsettled transaction):
   every record below H is settled and durable, analysis skips it, and
   removing it needs no order.  Only force-policy clearing of a single
   transaction keeps one (END last, {!Log.remove_end_last}). *)

open Rewind_nvm

type policy = Force | No_force
type layers = One_layer | Two_layer

type config = {
  policy : policy;
  layers : layers;
  variant : Log.variant;
  bucket_cap : int;
  partitions : int;
      (* independent log partitions (>= 1); transactions are pinned to a
         home partition by id, and recovery merges the partitions by
         LSN.  1 = the unpartitioned log of the paper's single-threaded
         experiments. *)
  incll : bool;
      (* in-cache-line logging (Cohen et al., ASPLOS'19): the undo entry
         lives in the data's own cache line and durability is
         epoch-granular ({!advance_epoch}).  Replaces the WAL machinery
         wholesale — no log, no records, no partitions. *)
}

let default_config =
  {
    policy = No_force;
    layers = One_layer;
    variant = Log.Optimized;
    bucket_cap = 1000;
    partitions = 1;
    incll = false;
  }

let pp_config ppf c =
  if c.incll then Fmt.string ppf "InCLL"
  else begin
    Fmt.pf ppf "%s-%s/%a"
      (match c.layers with One_layer -> "1L" | Two_layer -> "2L")
      (match c.policy with Force -> "FP" | No_force -> "NFP")
      Log.pp_variant c.variant;
    if c.partitions > 1 then Fmt.pf ppf "x%d" c.partitions
  end

type txn = int

(* What recovery found and did — surfaced so callers (and the fault
   campaign) can distinguish a clean recovery from one that had to
   truncate torn records. *)
type recovery_report = {
  records_scanned : int;  (* log records examined by analysis *)
  torn_truncated : int;   (* bad-checksum records dropped as torn writes *)
  redo_applied : int;     (* records re-applied by the redo pass *)
  txns_finished : int;    (* transactions found committed/rolled back *)
  txns_undone : int;      (* unfinished transactions rolled back by undo *)
}

(* One log partition: a complete recoverable log plus the per-partition
   transactional state that used to be process-global.  Everything a
   transaction's fast path touches lives here, guarded by this
   partition's latch alone. *)
type part = {
  pid : int;
  log : Log.t;  (* 1L: the user log; 2L: the AAVLT's internal log *)
  index : Avl_index.t option;  (* 2L only *)
  table : Txn_table.t;
  latch : Sim_mutex.t;
  ended : (int, int) Hashtbl.t;
      (* no-force transactions settled since they were last retired:
         txn -> the LSN of its END record *)
  mutable deferred_deletes : (txn * int * int * int) list;
      (* txn, DELETE record lsn, addr, size *)
  mutable deferred : (int * bool) list;
      (* Batch: user stores (addr, durably) whose undo records sit in a
         not-yet-persistent group.  Under the arbitrary-eviction fault
         model even a *cached* store may reach NVM at any moment, so these
         lines are pinned in the store buffer (visible to every load,
         never written back) until the group is durable. *)
}

type t = {
  cfg : config;
  alloc : Alloc.t;
  arena : Arena.t;
  parts : part array; (* empty under incll *)
  incll : Incll.t option;
  next_seq : int Sim_atomic.t array;
      (* per-partition transaction sequence counters: partition [p]'s
         next id is [first_txn + seq * partitions + p], so the home
         partition stays a pure function of the id even when the caller
         pins a transaction explicitly ([begin_txn ?home]) *)
  next_home : int Sim_atomic.t;
      (* round-robin cursor assigning homes to transactions whose caller
         did not pin one *)
  next_lsn : int Sim_atomic.t;  (* one global counter: LSNs order records
                               across all partitions *)
  horizon_slot : int;  (* root slot of the durable LSN horizon *)
  first_lsns : (txn, int) Hashtbl.t;
      (* every unsettled transaction that has taken an LSN -> its first
         one: the horizon may not pass it *)
  prepared_gtids : (int, int) Hashtbl.t;
      (* local txn id -> global (2PC) transaction id, for every
         transaction currently in doubt: PREPARE logged, outcome not yet
         resolved.  Maintained by [prepare]/[resolve_in_doubt] and rebuilt
         from the logs by recovery. *)
  mutable commits : int;
  mutable rollbacks : int;
  mutable last_recovery : recovery_report option;
  mutable last_recovery_profile : Probe.t option;
  mutable probe : Probe.t option;
      (* when set, the commit/checkpoint hot paths charge spans to it *)
}

(* Reserved txn id 0 belongs to the AAVLT's internal logging. *)
let first_txn = 1

(* Root-slot layout: the manager's first slot holds a durable
   configuration fingerprint (written once at [create]); partition [p]
   then anchors its log at [root_slot + 1 + 2*pid] and its AAVLT root at
   [root_slot + 2 + 2*pid]; the LSN horizon follows the last partition's
   slots.  InCLL uses the partition-0 pair for its epoch counter and
   cell directory, and keeps no horizon.  [attach] validates the
   fingerprint before touching any log slot — re-attaching with, say, a
   different partition count used to silently misassign home partitions
   and read other partitions' anchors as its own. *)
let part_log_slot ~root_slot pid = root_slot + 1 + (2 * pid)
let part_index_slot ~root_slot pid = root_slot + 2 + (2 * pid)

let horizon_slot (cfg : config) ~root_slot =
  part_log_slot ~root_slot cfg.partitions

let root_slots (cfg : config) = if cfg.incll then 3 else 2 + (2 * cfg.partitions)

(* The fingerprint packs every recovery-relevant config field into one
   word: magic tag, partition count, policy, layers, log variant (plus
   Batch group size) and bucket capacity.  {!check_cfg} keeps the group
   and the capacity inside their 16 and 24 bits. *)
let config_magic = 0x52 (* 'R' *)

let config_word cfg =
  let vtag, group =
    match cfg.variant with
    | Log.Simple -> (0, 0)
    | Log.Optimized -> (1, 0)
    | Log.Batch g -> (2, g land 0xFFFF)
  in
  config_magic
  lor ((cfg.partitions land 0xFF) lsl 8)
  lor ((match cfg.policy with No_force -> 0 | Force -> 1) lsl 16)
  lor ((match cfg.layers with One_layer -> 0 | Two_layer -> 1) lsl 17)
  lor (vtag lsl 18)
  lor (group lsl 20)
  lor ((cfg.bucket_cap land 0xFFFFFF) lsl 36)
  lor ((if cfg.incll then 1 else 0) lsl 61)

let config_of_word w =
  {
    policy = (if (w lsr 16) land 1 = 1 then Force else No_force);
    layers = (if (w lsr 17) land 1 = 1 then Two_layer else One_layer);
    variant =
      (match (w lsr 18) land 3 with
      | 0 -> Log.Simple
      | 1 -> Log.Optimized
      | _ -> Log.Batch ((w lsr 20) land 0xFFFF));
    bucket_cap = (w lsr 36) land 0xFFFFFF;
    partitions = (w lsr 8) land 0xFF;
    incll = (w lsr 61) land 1 = 1;
  }

(* -- misuse errors --------------------------------------------------------- *)

type error =
  | Invalid_config of string
  | No_fingerprint of { root_slot : int }
  | Not_a_fingerprint of { root_slot : int; found : int }
  | Fingerprint_mismatch of {
      root_slot : int;
      stored : config;
      requested : config;
    }
  | Wal_only of string
  | Incll_only of string
  | Home_out_of_range of { home : int; partitions : int }
  | Not_in_doubt of int
  | Unregistered_cell of int
  | Txn_not_open of int

exception Error of error

let error_message = function
  | Invalid_config msg -> "Tm: " ^ msg
  | No_fingerprint { root_slot } ->
      Printf.sprintf
        "Tm.attach: no durable configuration at root slot %d (this arena \
         was never initialised with Tm.create here)"
        root_slot
  | Not_a_fingerprint { root_slot; found } ->
      Printf.sprintf
        "Tm.attach: root slot %d does not hold a Tm configuration \
         fingerprint (found %#x)"
        root_slot found
  | Fingerprint_mismatch { root_slot; stored; requested } ->
      Fmt.str
        "Tm.attach: durable configuration mismatch at root slot %d: the \
         arena was created with %a (%d partition(s)) but attach requested \
         %a (%d partition(s))"
        root_slot pp_config stored stored.partitions pp_config requested
        requested.partitions
  | Wal_only op -> op ^ ": an InCLL configuration keeps no write-ahead log"
  | Incll_only op -> op ^ ": not an InCLL configuration"
  | Home_out_of_range { home; partitions } ->
      Printf.sprintf "Tm.begin_txn: home %d out of range [0, %d)" home
        partitions
  | Not_in_doubt txn ->
      Printf.sprintf "Tm.resolve_in_doubt: transaction %d is not in doubt" txn
  | Unregistered_cell addr ->
      Printf.sprintf "Tm.write: %d is not a Tm.alloc_cell cell" addr
  | Txn_not_open txn -> Printf.sprintf "Tm: transaction %d is not open" txn

let () =
  Printexc.register_printer (function
    | Error e -> Some (error_message e)
    | _ -> None)

let misuse e = raise (Error e)

(* An InCLL operation, its misuse typed at the manager's boundary. *)
let incll_op f =
  try f () with
  | Incll.Unregistered_cell addr -> misuse (Unregistered_cell addr)
  | Incll.Not_open txn -> misuse (Txn_not_open txn)

let check_cfg cfg ~root_slot =
  let invalid msg = misuse (Invalid_config msg) in
  if cfg.partitions < 1 then invalid "config.partitions must be at least 1";
  if cfg.incll && cfg.partitions <> 1 then
    invalid
      "incll is epoch-granular, not log-partitioned; config.partitions must \
       be 1";
  if cfg.incll && cfg.layers <> One_layer then
    invalid "incll keeps no record index; config.layers must be One_layer";
  (* the fingerprint keeps the capacity in 24 bits and the group in 16 *)
  if cfg.bucket_cap < 1 || cfg.bucket_cap >= 1 lsl 24 then
    invalid
      (Printf.sprintf "config.bucket_cap %d is outside [1, 2^24)" cfg.bucket_cap);
  (match cfg.variant with
  | Log.Batch g when g < 1 || g >= 1 lsl 16 ->
      invalid (Printf.sprintf "Batch group %d is outside [1, 2^16)" g)
  | _ -> ());
  let directory = Arena.reserved_bytes / 8 in
  if root_slot < 1 || root_slot + root_slots cfg > directory then
    invalid
      (Printf.sprintf
         "%d root slots from root slot %d run past the arena's root \
          directory (slots 1-%d)"
         (root_slots cfg) root_slot (directory - 1))

let validate_stored_config arena cfg ~root_slot =
  let stored = Int64.to_int (Arena.root_get arena root_slot) in
  if stored = 0 then misuse (No_fingerprint { root_slot })
  else if stored land 0xFF <> config_magic then
    misuse (Not_a_fingerprint { root_slot; found = stored })
  else if stored <> config_word cfg then
    misuse
      (Fingerprint_mismatch
         {
           root_slot;
           stored = config_of_word stored;
           requested = cfg;
         })

let make_part pid log index =
  {
    pid;
    log;
    index;
    table = Txn_table.create ();
    latch = Sim_mutex.create ();
    ended = Hashtbl.create 64;
    deferred_deletes = [];
    deferred = [];
  }

let make_t ?incll cfg alloc ~root_slot parts =
  {
    cfg;
    alloc;
    arena = Alloc.arena alloc;
    parts;
    incll;
    next_seq = Array.init (max 1 (Array.length parts)) (fun _ -> Sim_atomic.make 0);
    next_home = Sim_atomic.make 0;
    next_lsn = Sim_atomic.make 1;
    horizon_slot = horizon_slot cfg ~root_slot;
    first_lsns = Hashtbl.create 16;
    prepared_gtids = Hashtbl.create 8;
    commits = 0;
    rollbacks = 0;
    last_recovery = None;
    last_recovery_profile = None;
    probe = None;
  }

(* Under incll the two slots a partition-0 log/index would use anchor
   the epoch counter and the cell directory instead. *)
let incll_region f ~root_slot =
  f ~epoch_slot:(part_log_slot ~root_slot 0)
    ~dir_slot:(part_index_slot ~root_slot 0)

let create ?(cfg = default_config) alloc ~root_slot =
  check_cfg cfg ~root_slot;
  let arena = Alloc.arena alloc in
  Arena.root_set arena root_slot (Int64.of_int (config_word cfg));
  (* a horizon left behind by an earlier manager at this slot must not
     hide the fresh log's records; written after the fingerprint, so that
     every crash state of [create] still attaches *)
  if not cfg.incll then
    Arena.root_set arena (horizon_slot cfg ~root_slot) 0L;
  if cfg.incll then
    make_t cfg alloc ~root_slot [||]
      ~incll:(incll_region (Incll.create arena alloc) ~root_slot)
  else
  let parts =
    Array.init cfg.partitions (fun pid ->
        let log =
          Log.create cfg.variant ~bucket_cap:cfg.bucket_cap alloc
            ~root_slot:(part_log_slot ~root_slot pid)
        in
        Log.set_group_tag log pid;
        let index =
          match cfg.layers with
          | One_layer -> None
          | Two_layer ->
              let idx = Avl_index.create alloc ~ilog:log in
              Arena.root_set arena
                (part_index_slot ~root_slot pid)
                (Int64.of_int (Avl_index.root_ptr idx));
              Some idx
        in
        make_part pid log index)
  in
  make_t cfg alloc ~root_slot parts

let config t = t.cfg
let partitions t = max 1 (Array.length t.parts)

(* The guard of the WAL-only entry points. *)
let wal_only t op =
  if t.cfg.incll then misuse (Wal_only op)

let log t =
  wal_only t "Tm.log";
  t.parts.(0).log
let logs t = Array.map (fun p -> p.log) t.parts
let partition_appended t = Array.map (fun p -> Log.appended p.log) t.parts
let commits t = t.commits
let rollbacks t = t.rollbacks
let set_probe t p = t.probe <- p

(* Per partition latch: simulated ns acquirers waited for it, and ns it
   was held ({!Sim_mutex.wait_ns}, {!Sim_mutex.hold_ns}). *)
let latch_wait_ns t = Array.map (fun p -> Sim_mutex.wait_ns p.latch) t.parts
let latch_hold_ns t = Array.map (fun p -> Sim_mutex.hold_ns p.latch) t.parts
let last_recovery_profile t = t.last_recovery_profile

(* Charge [f] to phase [name] of the attached hot-path probe, if any. *)
let hot_span t name f =
  match t.probe with
  | None -> f ()
  | Some p -> Probe.span p (Arena.stats t.arena) name f

let active_transactions t =
  match t.incll with
  | Some i -> Incll.active i
  | None ->
      Array.fold_left (fun acc p -> acc + Txn_table.size p.table) 0 t.parts

let last_recovery t = t.last_recovery

(* The next LSN, taken by [txn]; its first registers it in [first_lsns]
   in the same scheduler step (nothing here yields), before it can wait
   for its home latch. *)
let fresh_lsn t txn =
  let lsn = Sim_atomic.fetch_and_add t.next_lsn 1 in
  if not (Hashtbl.mem t.first_lsns txn) then
    Hashtbl.replace t.first_lsns txn lsn;
  lsn

(* [txn] is settled: the horizon may pass its records. *)
let settled t txn =
  Hashtbl.remove t.first_lsns txn;
  Pmcheck.txn_settled t.arena ~txn

(* A transaction's home partition, a pure function of its id: round-robin
   over the partitions.  Deterministic, so recovery needs no pinning map —
   a transaction's records are found exactly where logging put them. *)
let home_partition t txn = (txn - first_txn) mod Array.length t.parts
let home t txn = t.parts.(home_partition t txn)

(* Advance the id counters past every transaction recovery saw, so fresh
   ids can never collide with recovered ones: partition [p]'s next
   sequence number is the smallest [s] with [first_txn + s*n + p >
   max_txn].  The round-robin cursor continues from the id after
   [max_txn], keeping default (unpinned) ids sequential across a crash. *)
let reseed_txn_counters t max_txn =
  let n = max 1 (Array.length t.parts) in
  Array.iteri
    (fun p seq ->
      let d = max_txn - first_txn - p in
      let s = if d < 0 then 0 else (d / n) + 1 in
      if s > Sim_atomic.get seq then Sim_atomic.set seq s)
    t.next_seq;
  let rr = max_txn + 1 - first_txn in
  if rr > Sim_atomic.get t.next_home then Sim_atomic.set t.next_home rr

(* -- transaction begin -------------------------------------------------- *)

(* Transaction ids encode their home partition: partition [p] hands out
   ids [first_txn + seq * n + p], so [home_partition] recomputes the home
   from the id alone and recovery needs no durable pinning map even for
   caller-pinned transactions.  With no caller pinning the round-robin
   cursor makes the ids come out exactly sequential (the pre-[?home]
   behaviour). *)
let begin_txn ?home:home_opt t =
  (* incll keeps no log partitions (parts = [||]); ids degenerate to the
     sequential single-partition scheme there. *)
  let n = max 1 (Array.length t.parts) in
  let hp =
    match home_opt with
    | Some h ->
        if h < 0 || h >= n then
          misuse (Home_out_of_range { home = h; partitions = n });
        h
    | None -> Sim_atomic.fetch_and_add t.next_home 1 mod n
  in
  let id = first_txn + (Sim_atomic.fetch_and_add t.next_seq.(hp) 1 * n) + hp in
  (match (t.incll, t.cfg.layers) with
  | Some i, _ -> Incll.begin_txn i id
  | None, One_layer -> ()  (* no per-transaction state while logging *)
  | None, Two_layer ->
      (* the transaction table is maintained while logging *)
      let p = home t id in
      Sim_mutex.with_lock p.latch (fun () ->
          ignore (Txn_table.find_or_add p.table id)));
  id

(* -- logging ------------------------------------------------------------ *)

(* Under Batch, pinned user stores are released as soon as their group is
   persistent (durably for Force, cached for No_force — by then the undo
   record is reachable, so a later eviction of the line is recoverable). *)
let drain_deferred t p =
  if p.deferred <> [] && Log.pending p.log = 0 then begin
    List.iter
      (fun (addr, durably) ->
        if durably then Arena.flush_line t.arena addr
        else Arena.unpin_line t.arena addr)
      (List.rev p.deferred);
    p.deferred <- []
  end

(* Persist [p]'s pending Batch group, then release the stores it held. *)
let flush_pending t p =
  Log.flush_group p.log;
  drain_deferred t p

let user_write t p addr v =
  let durably = t.cfg.policy = Force in
  match t.cfg.variant with
  | Log.Batch _ ->
      (* WAL under arbitrary eviction: hardware may write any dirty line
         back at any moment, so the store is held in the (pinned) store
         buffer until its log record's group is persistently reachable.
         Pin before the store — the store itself may trigger an eviction
         roll. *)
      Arena.pin_line t.arena addr;
      Arena.write t.arena addr v;
      p.deferred <- (addr, durably) :: p.deferred;
      drain_deferred t p
  | Log.Simple | Log.Optimized ->
      (* The record and its slot are already durably reachable. *)
      if durably then Arena.nt_write t.arena addr v
      else Arena.write t.arena addr v

(* Form a record of [txn_id] for [p] and return the step that puts it
   into [p]'s log; the caller takes [p]'s latch for that step.  One
   layer: {!Log.form} decides the record's form.  Two layers: the record
   is full, because the AAVLT indexes records by their LSN (Section 3.4):
   its put inserts a tree node whose payload is the record's address in
   one atomic AAVLT operation, and threads the record onto its
   transaction's back-chain via the volatile transaction table. *)
let form t p txn_id ~lsn ~typ ~addr ~old_value ~new_value ~undo_next =
  match p.index with
  | None ->
      let r =
        Log.form p.log ~lsn ~txn:txn_id ~typ ~addr ~old_value ~new_value
          ~undo_next
      in
      fun ~is_end -> ignore (Log.put ~is_end p.log r)
  | Some idx ->
      let r =
        Record.make t.alloc ~lsn ~txn:txn_id ~typ ~addr ~old_value ~new_value
          ~undo_next ~prev_same_txn:0
      in
      fun ~is_end ->
        let e = Txn_table.find_or_add p.table txn_id in
        (* Chain before the record becomes reachable. *)
        Record.set_prev_same_txn t.arena r e.Txn_table.last_record;
        Avl_index.op idx (fun () ->
            let node = Avl_index.insert_in_op idx lsn in
            Avl_index.set_head_record idx node r);
        e.Txn_table.last_record <- r;
        (* The record is durable here: [Record.make] wrote it back and the
           AAVLT op's internal logging fenced at least once since. *)
        if is_end && txn_id <> 0 then
          Pmcheck.commit_point t.arena ~txn:txn_id ~addr:r
            ~len:Record.size_bytes ~what:"END record (AAVLT-indexed)"

(* Records are formed "off-line" (Section 3.2) — outside the log latch —
   and only the atomic insertion is serialised, which is the fine-grained
   concurrency Section 4.7 claims.  A one-layer word-sized update is an
   inline pair: no allocation, no separate record line.  With a
   partitioned log the latch taken here is the transaction's
   home-partition latch — appends in different partitions never
   serialise against each other.  [store] runs in the same latch
   section, right after the append. *)
let log_update_then t txn_id ~addr ~old_value ~new_value ~store =
  wal_only t "Tm.log_update";
  let p = home t txn_id in
  let lsn = fresh_lsn t txn_id in
  let put =
    form t p txn_id ~lsn ~typ:Record.Update ~addr ~old_value ~new_value
      ~undo_next:0
  in
  Sim_mutex.with_lock p.latch (fun () ->
      put ~is_end:false;
      (* WAL declaration: [addr] now has an undo record.  Under Batch the
         record may still sit in an unpersisted group ([Log.pending] > 0),
         in which case the covered store must not reach NVM before the
         {!Pmcheck.group_persisted} of this partition. *)
      Pmcheck.region_logged ~group:p.pid t.arena ~txn:txn_id ~addr ~len:8
        ~durable:(Log.pending p.log = 0);
      store p)

let log_update t txn_id ~addr ~old_value ~new_value =
  log_update_then t txn_id ~addr ~old_value ~new_value ~store:ignore

(* The paper's expanded-code pattern (Listing 2): log, then store. *)
let write t txn_id ~addr ~value =
  match t.incll with
  | Some i -> incll_op (fun () -> Incll.write i txn_id ~addr ~value)
  | None -> (
      let old_value = Arena.read t.arena addr in
      match (t.cfg.policy, t.cfg.variant) with
      | No_force, (Log.Simple | Log.Optimized) ->
          log_update t txn_id ~addr ~old_value ~new_value:value;
          (* Thread-safe access to user data is the programmer's concern
             (Section 4.7); the cached store itself needs no TM latch. *)
          Arena.write t.arena addr value
      | Force, _ | No_force, Log.Batch _ ->
          (* The Batch deferral list is partition state: the store runs in
             the append's home-latch section. *)
          log_update_then t txn_id ~addr ~old_value ~new_value:value
            ~store:(fun p -> user_write t p addr value))

let read t _txn_id ~addr = Arena.read t.arena addr

(* Record an intention to free NVM; the de-allocation itself happens only
   once the transaction's outcome is settled (Section 4.3). *)
let log_delete t txn_id ~addr ~size =
  wal_only t "Tm.log_delete";
  let p = home t txn_id in
  let lsn = fresh_lsn t txn_id in
  let put =
    form t p txn_id ~lsn ~typ:Record.Delete ~addr
      ~old_value:(Int64.of_int size) ~new_value:0L ~undo_next:0
  in
  Sim_mutex.with_lock p.latch (fun () ->
      put ~is_end:false;
      p.deferred_deletes <- (txn_id, lsn, addr, size) :: p.deferred_deletes)

(* -- clearing ------------------------------------------------------------ *)

let record_txn t r = Record.txn t.arena r
let record_typ t r = Record.typ t.arena r

let free_deferred_deletes t p txn_id =
  let mine, rest =
    List.partition (fun (x, _, _, _) -> x = txn_id) p.deferred_deletes
  in
  List.iter (fun (_, _, addr, size) -> Alloc.free t.alloc addr size) mine;
  p.deferred_deletes <- rest

(* Two-layer: walk a transaction's back-chain from [r], newest first.
   Each record must pass [readable] before its link is read; then [f]
   sees it, and the walk goes on while [f] returns [true]. *)
let rec iter_chain ?(readable = fun _ -> true) t r f =
  if r <> 0 && readable r then begin
    let next = Record.prev_same_txn t.arena r in
    if f r then iter_chain ~readable t next f
  end

(* The horizon the current state allows: min(next LSN, first LSN of
   every unsettled transaction).  The next LSN is read first — a
   transaction that registers after the read takes an LSN at or above
   it. *)
let horizon t =
  let next = Sim_atomic.get t.next_lsn in
  Hashtbl.fold (fun _ first h -> min first h) t.first_lsns next

let durable_horizon t = Int64.to_int (Arena.root_get t.arena t.horizon_slot)

(* Persist every partition's pending group and deferred stores, then the
   whole cache: every settled transaction's effects are durable, and the
   horizon may pass them.  Buffered Batch stores must land before the
   flush or they would be silently dropped.  With nothing written back
   since the last fence (a force-policy recovery whose undo found nothing
   to restore), the closing fence would order nothing and is skipped. *)
let persist_all t =
  Array.iter (flush_pending t) t.parts;
  Arena.flush_all t.arena;
  Arena.fence_if_needed t.arena

(* Durably store the horizon [h] ([Arena.root_set] fences); the caller
   has just run {!persist_all}. *)
let set_horizon t h = Arena.root_set t.arena t.horizon_slot (Int64.of_int h)

(* Remove every record of [p] below the horizon [h], in any order: one
   tombstone pass over the log (one layer), or one ascending AAVLT key
   walk that stops at [h] (two layers; [intact] guards each record's
   free, since recovery may meet torn records). *)
let clear_below t p h ~intact =
  match p.index with
  | None -> Log.remove_where p.log (fun r -> Record.lsn t.arena r < h)
  | Some idx ->
      let below = ref [] in
      (try
         Avl_index.iter idx (fun n ->
             let lsn = Avl_index.key idx n in
             if lsn >= h then raise Exit;
             below := (lsn, Avl_index.head_record idx n) :: !below)
       with Exit -> ());
      List.iter
        (fun (lsn, r) ->
          ignore (Avl_index.remove idx lsn);
          if intact r then Record.free t.alloc r)
        (List.rev !below)

(* Force-policy clearing of one settled transaction, END record last.
   Two-layer: walk its back-chain and delete each record's tree node,
   oldest first — the END record is the newest. *)
let clear_txn t p txn_id =
  match (p.index, Txn_table.find p.table txn_id) with
  | None, _ -> Log.remove_end_last p.log (fun r -> record_txn t r = txn_id)
  | Some _, None -> ()
  | Some idx, Some e ->
      let oldest_first = ref [] in
      iter_chain t e.Txn_table.last_record (fun r ->
          oldest_first := r :: !oldest_first;
          true);
      List.iter
        (fun r ->
          ignore (Avl_index.remove idx (Record.lsn t.arena r));
          Record.free t.alloc r)
        !oldest_first;
      Txn_table.remove p.table txn_id

(* -- commit --------------------------------------------------------------- *)

(* Append a control record (END, CLR, PREPARE or recovery's ROLLBACK)
   to [p], formed under the latch.  Returns its LSN. *)
let append_control t p txn_id ~typ ~is_end ?(addr = 0) ?(old_value = 0L)
    ?(new_value = 0L) ?(undo_next = 0) () =
  let lsn = fresh_lsn t txn_id in
  form t p txn_id ~lsn ~typ ~addr ~old_value ~new_value ~undo_next ~is_end;
  lsn

let append_end t p txn_id =
  append_control t p txn_id ~typ:Record.End ~is_end:true ()

(* [clear] exists for experiments that model a crash landing between the
   END record and commit-time clearing (Sections 5.1's recovery scenarios);
   production callers leave it true. *)
let commit ?(clear = true) t txn_id =
  hot_span t "commit" @@ fun () ->
  match t.incll with
  | Some i ->
      (* free: the commit becomes durable with its epoch — a crash loses
         up to one epoch of committed work, never consistency *)
      incll_op (fun () -> Incll.commit i txn_id);
      t.commits <- t.commits + 1
  | None ->
      let p = home t txn_id in
      Sim_mutex.with_lock p.latch (fun () ->
          t.commits <- t.commits + 1;
          (match t.cfg.policy with
          | Force ->
              (* All of the transaction's stores are already on their way
                 to NVM; fence, log END, and clear immediately. *)
              flush_pending t p;
              Arena.fence t.arena;
              ignore (append_end t p txn_id);
              if clear then begin
                clear_txn t p txn_id;
                free_deferred_deletes t p txn_id
              end
          | No_force ->
              (* The END record forces the batch group; buffered stores
                 can then reach the (volatile) cache. *)
              let end_lsn = append_end t p txn_id in
              drain_deferred t p;
              Hashtbl.replace p.ended txn_id end_lsn);
          settled t txn_id)

(* -- rollback -------------------------------------------------------------- *)

(* Write a CLR recording the undo of [rec], then apply the undo.  The CLR's
   new value is the restored (old) value; [undo_next] carries the undone
   record's LSN so that Algorithm 2 can skip past it after a crash.  The
   CLR lands in the transaction's home partition, like every record of the
   transaction. *)
let undo_one t p txn_id rec_ ~durably =
  let addr = Record.addr t.arena rec_ in
  let restored = Record.old_value t.arena rec_ in
  let undo_next = Record.lsn t.arena rec_ in
  (* write-only (never read by redo or undo): the compact one-layer format
     drops it *)
  let old_value = Record.new_value t.arena rec_ in
  ignore
    (append_control t p txn_id ~typ:Record.Clr ~is_end:durably ~addr
       ~old_value ~new_value:restored ~undo_next ());
  Pmcheck.region_logged ~group:p.pid t.arena ~txn:txn_id ~addr ~len:8
    ~durable:(Log.pending p.log = 0);
  (* Route the restore through the same WAL-ordered store path as forward
     writes: under Batch it must stay buffered behind the CLR's group (and
     behind any still-pending forward store to the same line). *)
  user_write t p addr restored

(* Algorithm 2's undo step, for one record of a backward walk over
   [txn_id]'s records: a CLR lowers [bound] to the LSN its undo resumed
   from, so already-compensated updates are skipped; an UPDATE below the
   bound is undone, [before_undo] first.  [lsn] is forced only for an
   UPDATE — each walk reads a record's LSN when it always has. *)
let undo_step t p txn_id ~durably ~bound ?(before_undo = ignore) ~lsn r =
  match record_typ t r with
  | Record.Clr -> bound := Record.undo_next t.arena r
  | Record.Update ->
      if Lazy.force lsn < !bound then begin
        before_undo ();
        undo_one t p txn_id r ~durably
      end
  | Record.End | Record.Delete | Record.Rollback | Record.Prepare ->
      ()

(* Undo [txn_id]'s records in [p] newest first, under Algorithm 2's
   bound: all of them, or with [sp] those at or above the savepoint,
   stopping at the first below it.  One layer scans [p]'s log backwards,
   skipping other transactions' records (the "skip records" of Section
   5.1) — every record of [txn_id] lives there.  Two layers walk the
   back-chain and retrieve records through the AAVLT (Section 4.4): a
   full rollback looks up every record, a partial one each it undoes.
   With [sp] each record's LSN is read up front; without, only an
   UPDATE's, when [undo_step] needs it. *)
let undo_back ?sp t p txn_id ~durably =
  let bound = ref max_int in
  let find lsn =
    Option.iter (fun idx -> ignore (Avl_index.find idx lsn)) p.index
  in
  let step r =
    match sp with
    | None ->
        if Option.is_some p.index then find (Record.lsn t.arena r);
        undo_step t p txn_id ~durably ~bound
          ~lsn:(lazy (Record.lsn t.arena r))
          r;
        true
    | Some sp ->
        let lsn = Record.lsn t.arena r in
        lsn >= sp
        && begin
             undo_step t p txn_id ~durably ~bound
               ~before_undo:(fun () -> find lsn)
               ~lsn:(Lazy.from_val lsn) r;
             true
           end
  in
  match p.index with
  | None ->
      Log.iter_back_while p.log (fun r -> record_txn t r <> txn_id || step r)
  | Some _ ->
      Option.iter
        (fun e -> iter_chain t e.Txn_table.last_record step)
        (Txn_table.find p.table txn_id)

(* -- partial rollback (savepoints) ---------------------------------------

   An extension the CLR machinery supports directly (ARIES's partial
   rollbacks): a savepoint names an LSN; rolling back to it undoes the
   transaction's updates with larger LSNs, writing ordinary CLRs.  A crash
   afterwards recovers correctly with no extra machinery — Algorithm 2's
   undo bounds skip exactly the already-compensated records. *)

type savepoint = int

(* WAL: a savepoint names an LSN.  InCLL: it names a depth in the
   transaction's volatile undo journal — same int, same semantics (undo
   everything after this point). *)
let savepoint t txn_id =
  match t.incll with
  | Some i -> incll_op (fun () -> Incll.savepoint i txn_id)
  | None -> Sim_atomic.get t.next_lsn

let rollback_to t txn_id (sp : savepoint) =
  match t.incll with
  | Some i -> incll_op (fun () -> Incll.rollback_to i txn_id sp)
  | None ->
      let p = home t txn_id in
      Sim_mutex.with_lock p.latch (fun () ->
          (* the bound keeps repeated partial rollbacks from re-undoing
             compensated updates *)
          undo_back ~sp t p txn_id ~durably:(t.cfg.policy = Force);
          (* deferred de-allocations requested after the savepoint are
             void *)
          p.deferred_deletes <-
            List.filter
              (fun (x, lsn, _, _) -> x <> txn_id || lsn < sp)
              p.deferred_deletes)

let rollback t txn_id =
  match t.incll with
  | Some i ->
      incll_op (fun () -> Incll.rollback i txn_id);
      t.rollbacks <- t.rollbacks + 1
  | None ->
      let p = home t txn_id in
      Sim_mutex.with_lock p.latch (fun () ->
          t.rollbacks <- t.rollbacks + 1;
          (* Settle any deferred (Batch) user stores *before* undoing, or
             a stale pending store could overwrite a restored value. *)
          flush_pending t p;
          (* The bound makes the walk idempotent: resolving an in-doubt
             transaction as aborted after a crash mid-rollback must not
             re-undo already-compensated updates. *)
          undo_back t p txn_id ~durably:(t.cfg.policy = Force);
          Log.flush_group p.log;
          let end_lsn = append_end t p txn_id in
          drain_deferred t p;
          p.deferred_deletes <-
            List.filter (fun (x, _, _, _) -> x <> txn_id) p.deferred_deletes;
          (match t.cfg.policy with
          | Force -> clear_txn t p txn_id
          | No_force -> Hashtbl.replace p.ended txn_id end_lsn);
          settled t txn_id)

(* -- two-phase commit: the participant side (Distributed REWIND) ----------- *)

(* PREPARE (the participant's yes-vote): make everything the transaction
   did durable — pending batch groups, deferred user stores and, under
   force, the data itself — then durably log a PREPARE record carrying
   the global transaction id in its old-value field.  From here until
   {!resolve_in_doubt} the transaction is *in doubt*: recovery neither
   undoes nor finishes it, because under presumed abort only the
   coordinator's durable decision record can settle it. *)
let prepare t txn_id ~gtid =
  wal_only t "Tm.prepare";
  hot_span t "prepare" @@ fun () ->
  let p = home t txn_id in
  Sim_mutex.with_lock p.latch (fun () ->
      flush_pending t p;
      Arena.fence t.arena;
      ignore
        (append_control t p txn_id ~typ:Record.Prepare ~is_end:true
           ~old_value:(Int64.of_int gtid) ());
      (match Txn_table.find p.table txn_id with
      | Some e -> e.Txn_table.status <- Txn_table.Prepared
      | None -> ());
      Hashtbl.replace t.prepared_gtids txn_id gtid)

(* The transactions currently in doubt (live after {!prepare}, or found
   by recovery), with their global transaction ids. *)
let in_doubt t =
  List.sort compare
    (Hashtbl.fold (fun x g acc -> (x, g) :: acc) t.prepared_gtids [])

(* Settle an in-doubt transaction once the coordinator's decision is
   known.  Both outcomes reuse the ordinary settle paths; rollback's CLR
   bound makes abort resolution idempotent when a crash lands
   mid-resolution and the decision is re-applied after re-attach. *)
let resolve_in_doubt t txn_id ~commit:do_commit =
  if not (Hashtbl.mem t.prepared_gtids txn_id) then
    misuse (Not_in_doubt txn_id);
  if do_commit then commit t txn_id else rollback t txn_id;
  Hashtbl.remove t.prepared_gtids txn_id

(* -- checkpoint (Section 4.6) ---------------------------------------------- *)

(* Acquire every partition latch in index order (deadlock-free: the
   transaction fast paths only ever hold a single latch). *)
let rec with_all_latches t i f =
  if i >= Array.length t.parts then f ()
  else
    Sim_mutex.with_lock t.parts.(i).latch (fun () ->
        with_all_latches t (i + 1) f)

(* The InCLL epoch checkpoint — the config's replacement for both
   commit-time clearing and the cache-consistent checkpoint.  Requires
   quiescence: an advance with a transaction in flight would turn the
   new epoch boundary into a transaction-inconsistent recovery target. *)
let advance_epoch t =
  match t.incll with
  | None -> misuse (Incll_only "Tm.advance_epoch")
  | Some i -> Incll.advance_quiescent ~span:(hot_span t "epoch-advance") i

let current_epoch t =
  match t.incll with None -> None | Some i -> Some (Incll.epoch i)

(* Allocate transactionally-managed storage for one word.  WAL configs
   hand out a bare word; InCLL hands out a full cell line (data + in-line
   undo + epoch tag) through the durable directory.  Workloads that want
   to run unchanged across every configuration allocate through this. *)
let alloc_cell t =
  match t.incll with
  | Some i -> Incll.alloc_cell i
  | None -> Alloc.alloc t.alloc 8

(* A settled no-force transaction retires once its END record lies below
   the horizon [h], so no record of it survives for redo to replay: its
   two-layer table entry goes, and its deferred de-allocations run. *)
let retire t p h =
  Hashtbl.fold (fun id end_lsn acc -> if end_lsn < h then id :: acc else acc)
    p.ended []
  |> List.iter (fun id ->
         Hashtbl.remove p.ended id;
         Txn_table.remove p.table id;
         free_deferred_deletes t p id)

(* Only storing the horizon needs the world stopped: once H is durable,
   recovery reads nothing below it, and every later record takes an LSN
   at or above it.  So every latch is held for [persist_all] and the
   horizon store alone.  Each partition is then cleared under its own
   latch: its all-dead buckets unlinked whole (Section 3.3), the records
   below H left in the current and mixed buckets tombstoned, and the
   settled transactions retired.  Compaction follows once every
   partition is cleared, again under each partition's own latch, so its
   allocations still come after all of the clearing's frees; the
   unlinked buckets are freed last, with no latch held. *)
let checkpoint t =
  match t.incll with
  | Some i ->
      (* best effort: under load the advance waits for a quiescent
         checkpoint — deferring durability is safe, splitting a
         transaction across epochs is not *)
      Incll.advance_if_quiescent ~span:(hot_span t "epoch-advance") i
  | None ->
  hot_span t "checkpoint" @@ fun () ->
  (* Section 4.6: the horizon, stored once the pending groups and the
     cache are durable, takes the place of the CHECKPOINT record. *)
  let h =
    with_all_latches t 0 (fun () ->
        hot_span t "cp-persist" (fun () ->
            persist_all t;
            let h = horizon t in
            set_horizon t h;
            h))
  in
  let dead =
    Array.map
      (fun p ->
        Sim_mutex.with_lock p.latch (fun () ->
            let dead =
              hot_span t "cp-unlink" (fun () -> Log.unlink_below p.log h)
            in
            hot_span t "cp-clear" (fun () ->
                clear_below t p h ~intact:(fun _ -> true);
                retire t p h);
            dead))
      t.parts
  in
  (* Compact any partition that clearing left mostly gaps
     (long-running transactions spanning otherwise-empty buckets). *)
  Array.iter
    (fun p ->
      Sim_mutex.with_lock p.latch (fun () ->
          hot_span t "cp-compact" (fun () ->
              Log.compact ~threshold:0.25 p.log)))
    t.parts;
  hot_span t "cp-reclaim" (fun () ->
      Array.iteri (fun i p -> Log.reclaim p.log dead.(i)) t.parts)

(* -- recovery (Section 4.5) -------------------------------------------------- *)

(* Per-partition sub-span: with one partition the phase totals are the
   whole story (and the pinned profile shape stays exactly as before);
   with several, each partition's share appears as "phase/pN". *)
let sub_span prof stats ~parts name pid f =
  if parts > 1 then Probe.span prof stats (Printf.sprintf "%s/p%d" name pid) f
  else f ()

let part_span t prof name p f =
  sub_span prof (Arena.stats t.arena) ~parts:(Array.length t.parts) name p.pid f

(* Run [f pid] for each of [parts] partitions on its own recovery fiber,
   every fiber starting at the same simulated instant; the caller's clock
   resumes at the slowest one ({!Sim_threads.fork_join}).  Each
   partition's share is its "name/pN" sub-span; the enclosing phase span
   is charged once, at the join, so the top-level phases still add up to
   the attach's simulated time.  Each fiber reads and repairs only its
   own partition's log, index and records (the allocator, the one shared
   structure, synchronises on its own lock), so the work really is
   independent.  One partition runs inline. *)
let on_partition_fibers prof stats ~parts name f =
  Sim_threads.fork_join parts (fun pid ->
      sub_span prof stats ~parts name pid (fun () -> f pid))

(* One log record as recovery sees it.  Analysis reads every live record
   exactly once into this form — its ref, LSN, transaction and type, plus,
   for UPDATE/CLR under no-force, the address and new value that redo
   replays (0 otherwise: under force there is no redo, and the only
   payload undo needs is a loser's, which it reads from NVM with the rest
   of that record).  Redo and undo walk these entries instead of
   re-reading the log, so only a loser's records are ever read again. *)
type entry = {
  r : int;
  lsn : int;
  txn : txn;
  typ : Record.typ;
  addr : int;
  value : int64;
}

let decode t ~payload r =
  let lsn = Record.lsn t.arena r in
  let txn = record_txn t r in
  let typ = record_typ t r in
  if payload && (typ = Record.Update || typ = Record.Clr) then
    {
      r;
      lsn;
      txn;
      typ;
      addr = Record.addr t.arena r;
      value = Record.new_value t.arena r;
    }
  else { r; lsn; txn; typ; addr = 0; value = 0L }

(* K-way merge of per-partition entry streams, each ascending by LSN,
   into one globally ascending list.  The streams are small in number (the
   partition count), so a linear scan of the heads per pop is cheaper than
   a heap at this size. *)
let merge_ascending streams =
  let n = Array.length streams in
  let out = ref [] in
  let exhausted = ref false in
  while not !exhausted do
    let best = ref (-1) and best_lsn = ref max_int in
    for i = 0 to n - 1 do
      match streams.(i) with
      | e :: _ when e.lsn < !best_lsn ->
          best := i;
          best_lsn := e.lsn
      | _ -> ()
    done;
    if !best < 0 then exhausted := true
    else
      match streams.(!best) with
      | e :: rest ->
          streams.(!best) <- rest;
          out := e :: !out
      | [] -> assert false
  done;
  List.rev !out

(* One partition's live records, decoded, as an ascending-by-LSN stream.
   One-layer: the log in append order, which is *almost* LSN order — LSNs
   are fetched from the global counter outside the latch, so two
   concurrent appends into the same partition can land inverted — hence
   the sort (cheap on nearly-sorted input) before the k-way merge relies
   on it.  Two-layer: the AAVLT's in-order traversal; a record failing
   {!Record.intact} is a torn write, reported to [on_torn] and dropped
   (one-layer logs truncate torn records at attach, so every record they
   yield is intact).  Records below the [horizon] are settled and
   durable, and are dropped too. *)
let part_stream t ~payload ~horizon ~on_torn p =
  let acc = ref [] in
  let keep r =
    let e = decode t ~payload r in
    if e.lsn >= horizon then acc := e :: !acc
  in
  (match p.index with
  | None -> Log.iter p.log keep
  | Some idx ->
      Avl_index.iter idx (fun n ->
          let r = Avl_index.head_record idx n in
          if Record.intact t.arena r then keep r else on_torn ()));
  List.sort (fun a b -> compare a.lsn b.lsn) !acc

(* Every partition's decoded stream, each decoded on its own recovery
   fiber, merged into global LSN order at the join: the stream analysis
   builds and redo and undo replay. *)
let decoded_log t prof ~payload ~horizon ~on_torn =
  merge_ascending
    (on_partition_fibers prof (Arena.stats t.arena)
       ~parts:(Array.length t.parts) "analysis" (fun pid ->
         part_stream t ~payload ~horizon ~on_torn t.parts.(pid)))

let merged_log_records t =
  List.map
    (fun e -> e.r)
    (decoded_log t (Probe.create ()) ~payload:false
       ~horizon:(durable_horizon t) ~on_torn:ignore)

(* Analysis: decode every partition once into the merged stream and
   rebuild each transaction's entry in its home partition's table (a
   transaction's records all live in its home partition), registering
   each transaction at its first LSN until recovery settles it.  The LSN
   and transaction-id high-water marks are global maxima over every
   partition, and LSNs continue from the horizon even when no record
   lies above it.  Returns the stream and the number of transactions
   found finished. *)
let analysis t prof ~on_torn =
  Array.iter (fun p -> Txn_table.clear p.table) t.parts;
  Hashtbl.reset t.first_lsns;
  let horizon = durable_horizon t in
  let stream =
    decoded_log t prof ~payload:(t.cfg.policy = No_force) ~horizon ~on_torn
  in
  let max_lsn = ref 0 and max_txn = ref 0 in
  List.iter
    (fun e ->
      if e.lsn > !max_lsn then max_lsn := e.lsn;
      if e.txn > !max_txn then max_txn := e.txn;
      if e.txn <> 0 then begin
        if not (Hashtbl.mem t.first_lsns e.txn) then
          Hashtbl.replace t.first_lsns e.txn e.lsn;
        let te = Txn_table.find_or_add (home t e.txn).table e.txn in
        te.Txn_table.last_record <- e.r;
        match e.typ with
        | Record.End -> te.Txn_table.status <- Txn_table.Finished
        | Record.Rollback -> te.Txn_table.status <- Txn_table.Aborted
        | Record.Prepare ->
            te.Txn_table.status <- Txn_table.Prepared;
            Hashtbl.replace t.prepared_gtids e.txn
              (Int64.to_int (Record.old_value t.arena e.r))
        | Record.Update | Record.Clr | Record.Delete -> ()
      end)
    stream;
  Sim_atomic.set t.next_lsn (max (!max_lsn + 1) horizon);
  reseed_txn_counters t !max_txn;
  let finished = ref 0 in
  Array.iter
    (fun p ->
      Txn_table.iter p.table (fun e ->
          if e.Txn_table.status = Txn_table.Finished then incr finished))
    t.parts;
  (stream, !finished)

(* Redo phase (no-force only): repeat history forward in *global* LSN
   order from the decoded stream — cached stores and nothing else.
   Replaying each partition independently would be wrong the moment two
   transactions in different partitions updated the same word: the replay
   order must be the LSN order, which is cross-partition.  Physical redo
   is idempotent, so a crash during recovery just restarts it.  Returns
   the number of records re-applied. *)
let redo t stream =
  List.fold_left
    (fun applied e ->
      match e.typ with
      | Record.Update | Record.Clr ->
          Arena.write t.arena e.addr e.value;
          applied + 1
      | Record.End | Record.Delete | Record.Rollback | Record.Prepare ->
          applied)
    0 stream

(* One-layer undo: Algorithm 2 — a single backward walk of the decoded
   stream (descending global LSN) undoing every unfinished transaction,
   tracking per-transaction CLR bounds so that already-undone updates are
   skipped.  Only losers' records are read from NVM again.  Each CLR lands
   in its transaction's home partition.  Returns the number of losers. *)
let undo_one_layer t stream =
  let durably = t.cfg.policy = Force in
  (* every transaction still running at the crash is aborted here, and
     logs a ROLLBACK record below *)
  let to_mark_rollback = Hashtbl.create 16 in
  Array.iter
    (fun p ->
      Txn_table.iter p.table (fun e ->
          if e.Txn_table.status = Txn_table.Running then begin
            e.Txn_table.status <- Txn_table.Aborted;
            Hashtbl.replace to_mark_rollback e.Txn_table.id ()
          end))
    t.parts;
  let undo_map : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.txn <> 0 then
        let p = home t e.txn in
        match Txn_table.find p.table e.txn with
        | Some { Txn_table.status = Txn_table.Aborted; _ } -> (
            match e.typ with
            | Record.Clr ->
                Hashtbl.replace undo_map e.txn (Record.undo_next t.arena e.r);
                if durably then
                  (* redo the CLR: covers a crash between the CLR and its
                     user store *)
                  Arena.nt_write t.arena (Record.addr t.arena e.r)
                    (Record.new_value t.arena e.r)
            | Record.Update ->
                let skip =
                  match Hashtbl.find_opt undo_map e.txn with
                  | Some bound -> e.lsn >= bound
                  | None -> false
                in
                if not skip then undo_one t p e.txn e.r ~durably
            | Record.End | Record.Delete | Record.Rollback | Record.Prepare
              ->
                ())
        | Some _ | None ->
            (* finished, or in doubt: a prepared transaction voted yes and
               may only be settled by [resolve_in_doubt] once the
               coordinator's decision is known — leave its records
               untouched *)
            ())
    (List.rev stream);
  (* END records for every transaction we just settled, appended to each
     loser's home partition; in-doubt transactions are not losers *)
  let losers = ref 0 in
  Array.iter
    (fun p ->
      Txn_table.iter p.table (fun e ->
          if
            e.Txn_table.status <> Txn_table.Finished
            && e.Txn_table.status <> Txn_table.Prepared
          then begin
            incr losers;
            if Hashtbl.mem to_mark_rollback e.Txn_table.id then
              ignore
                (append_control t p e.Txn_table.id ~typ:Record.Rollback
                   ~is_end:false ());
            ignore (append_end t p e.Txn_table.id);
            e.Txn_table.status <- Txn_table.Finished
          end))
    t.parts;
  !losers

(* After analysis, [t.prepared_gtids] holds every transaction that logged
   a PREPARE; keep only those still in doubt (status [Prepared]) — a
   later END or ROLLBACK record means the outcome was already settled. *)
let prune_in_doubt t =
  let keep = Hashtbl.create 8 in
  Array.iter
    (fun p ->
      Txn_table.iter p.table (fun e ->
          if e.Txn_table.status = Txn_table.Prepared then
            Hashtbl.replace keep e.Txn_table.id
              (Option.value ~default:0
                 (Hashtbl.find_opt t.prepared_gtids e.Txn_table.id))))
    t.parts;
  Hashtbl.reset t.prepared_gtids;
  Hashtbl.iter (Hashtbl.replace t.prepared_gtids) keep

(* Two-layer undo: the AAVLTs are the durable transaction tables, so each
   unfinished transaction's back-chain is walked within its home partition
   with the Algorithm-2 CLR bound.  A chain walk stops at the first torn
   link, reported to [on_torn].  Returns the number of losers. *)
let undo_two_layer t ~on_torn =
  let durably = t.cfg.policy = Force in
  let total = ref 0 in
  Array.iter
    (fun p ->
      match p.index with
      | None -> ()
      | Some idx ->
          (* in-doubt (prepared) transactions are not losers: they stay
             unsettled until [resolve_in_doubt] *)
          let losers =
            List.filter
              (fun e -> e.Txn_table.status <> Txn_table.Prepared)
              (Txn_table.unfinished p.table)
          in
          total := !total + List.length losers;
          List.iter
            (fun e ->
              let x = e.Txn_table.id in
              let head = e.Txn_table.last_record in
              (* corner case: crash between the last CLR and its user
                 store *)
              (if
                 t.cfg.policy = Force && head <> 0
                 && record_typ t head = Record.Clr
               then
                 Arena.nt_write t.arena
                   (Record.addr t.arena head)
                   (Record.new_value t.arena head));
              let bound = ref max_int in
              iter_chain t head
                ~readable:(fun r ->
                  Record.intact t.arena r
                  ||
                  (* torn link: the chain beyond it predates the tear
                     and was settled by earlier groups — stop here *)
                  (on_torn ();
                   false))
                (fun r ->
                  undo_step t p x ~durably ~bound
                    ~before_undo:(fun () ->
                      ignore (Avl_index.find idx (Record.lsn t.arena r)))
                    ~lsn:(lazy (Record.lsn t.arena r))
                    r;
                  true);
              ignore (append_end t p x);
              e.Txn_table.status <- Txn_table.Finished)
            losers)
    t.parts;
  !total

(* Two-layer index clearing, ahead of the log clearing: wholesale, one
   atomic root swing per partition, when nothing is in doubt; otherwise
   everything below the horizon [h], so that in-doubt chains survive
   until [resolve_in_doubt].  Torn records leak, like every volatile free
   list across a crash. *)
let clear_indexes t prof ~wholesale h =
  Array.iter
    (fun p ->
      part_span t prof "clearing" p @@ fun () ->
      match p.index with
      | None -> ()
      | Some _ when not wholesale ->
          clear_below t p h ~intact:(Record.intact t.arena)
      | Some idx ->
          let records = ref [] in
          Avl_index.iter idx (fun n ->
              let r = Avl_index.head_record idx n in
              if Record.intact t.arena r then records := r :: !records);
          Avl_index.clear idx;
          List.iter (fun r -> Record.free t.alloc r) !records)
    t.parts

let clear_after_recovery t prof stream =
  (* Every transaction is settled except the in-doubt set; make the
     recovered state durable *before* dropping records — a crash here
     must still find the log able to repeat history — then raise the
     horizon over every settled transaction and clear below it.  With
     nothing in doubt the horizon is the next LSN and clearing is the
     paper's wholesale three-step swap (Section 4.5), one root swing per
     partition; otherwise the horizon stops at the oldest in-doubt
     transaction's first LSN, whose records (UPDATE/DELETE/PREPARE and
     any CLRs from an interrupted abort resolution) must survive until
     [resolve_in_doubt], across any number of further crashes.  The
     bottom-layer (AAVLT-internal) logs of two layers hold only settled
     internal records and always go wholesale. *)
  let in_doubt_txn x = Hashtbl.mem t.prepared_gtids x in
  let wholesale = Hashtbl.length t.prepared_gtids = 0 in
  Hashtbl.filter_map_inplace
    (fun x first -> if in_doubt_txn x then Some first else None)
    t.first_lsns;
  persist_all t;
  let h = horizon t in
  set_horizon t h;
  if t.cfg.layers = Two_layer then begin
    clear_indexes t prof ~wholesale h;
    persist_all t
  end;
  Array.iter
    (fun p ->
      (match p.index with
      | None when not wholesale -> clear_below t p h ~intact:(fun _ -> true)
      | _ -> Log.clear_all p.log);
      (* two-layer in-doubt chains drive resolution; one-layer resolution
         re-scans the log *)
      let drop = ref [] in
      Txn_table.iter p.table (fun e ->
          if p.index = None || e.Txn_table.status <> Txn_table.Prepared then
            drop := e.Txn_table.id :: !drop);
      List.iter (Txn_table.remove p.table) !drop;
      Hashtbl.reset p.ended;
      p.deferred_deletes <- [];
      p.deferred <- [])
    t.parts;
  (* Rebuild the in-doubt transactions' deferred de-allocation intentions
     from their surviving DELETE records: a commit decision frees them, an
     abort drops them. *)
  List.iter
    (fun e ->
      if e.typ = Record.Delete && in_doubt_txn e.txn then
        let p = home t e.txn in
        p.deferred_deletes <-
          ( e.txn,
            e.lsn,
            Record.addr t.arena e.r,
            Int64.to_int (Record.old_value t.arena e.r) )
          :: p.deferred_deletes)
    stream

let torn_truncated_logs t =
  Array.fold_left (fun acc p -> acc + Log.torn_truncated p.log) 0 t.parts

(* WAL recovery: analysis, redo (no-force), undo, clearing. *)
let recover_wal t prof pstats =
  Hashtbl.reset t.prepared_gtids;
  (* two-layer only: AAVLT-indexed records failing their checksum *)
  let torn = ref 0 in
  let on_torn () =
    incr torn;
    pstats.Stats.torn_records <- pstats.Stats.torn_records + 1
  in
  let stream, finished =
    Probe.span prof pstats "analysis" (fun () -> analysis t prof ~on_torn)
  in
  prune_in_doubt t;
  let redo =
    if t.cfg.policy = No_force then
      Probe.span prof pstats "redo" (fun () -> redo t stream)
    else 0
  in
  let undone =
    Probe.span prof pstats "undo" (fun () ->
        match t.cfg.layers with
        | One_layer -> undo_one_layer t stream
        | Two_layer -> undo_two_layer t ~on_torn)
  in
  let report =
    {
      records_scanned = List.length stream;
      (* the logs (2L: the AAVLTs' internal logs) truncate torn records at
         attach *)
      torn_truncated = !torn + torn_truncated_logs t;
      redo_applied = redo;
      txns_finished = finished;
      txns_undone = undone;
    }
  in
  Probe.span prof pstats "clearing" (fun () ->
      clear_after_recovery t prof stream);
  report

(* Recovery proper, charging each phase to [prof].  The profile gives
   every recovery its own counter scope: the arena's {!Stats} totals are
   cumulative across attach cycles, so per-phase deltas are the only way
   to report one recovery's NVM work without double-counting.  With more
   than one partition the per-partition shares additionally appear as
   "phase/pN" sub-spans. *)
let recover_with t prof =
  let pstats = Arena.stats t.arena in
  Pmcheck.recovery_begin t.arena;
  let report =
    match t.incll with
    | Some i ->
        (* no analysis/redo/undo: the in-line tags are the whole
           transaction table *)
        let scanned, rolled =
          Probe.span prof pstats "epoch-scan" (fun () -> Incll.recover i)
        in
        {
          records_scanned = scanned;
          torn_truncated = 0;
          redo_applied = 0;
          txns_finished = 0;
          txns_undone = rolled;
        }
    | None -> recover_wal t prof pstats
  in
  Pmcheck.recovery_end t.arena;
  t.last_recovery <- Some report;
  t.last_recovery_profile <- Some prof

let recover t = recover_with t (Probe.create ())

(* Reattach after a crash: recover each partition's log structure and
   AAVLT — one recovery fiber per partition, joined phase by phase — then
   run the merged transaction recovery.  Every phase, including the
   structural log/index reattachment, is profiled; see
   {!last_recovery_profile}. *)
let attach ?(cfg = default_config) alloc ~root_slot =
  check_cfg cfg ~root_slot;
  let arena = Alloc.arena alloc in
  let prof = Probe.create () in
  let pstats = Arena.stats arena in
  (* its own phase, so that the phases add up to the attach *)
  Probe.span prof pstats "config-check" (fun () ->
      validate_stored_config arena cfg ~root_slot);
  let t =
    if cfg.incll then
      make_t cfg alloc ~root_slot [||]
        ~incll:
          (Probe.span prof pstats "dir-attach" (fun () ->
               incll_region (Incll.attach arena alloc) ~root_slot))
    else begin
      let parts = cfg.partitions in
      let phase name f =
        Probe.span prof pstats name (fun () ->
            on_partition_fibers prof pstats ~parts name f)
      in
      let logs =
        phase "log-attach" (fun pid ->
            let log =
              Log.attach cfg.variant ~bucket_cap:cfg.bucket_cap alloc
                ~root_slot:(part_log_slot ~root_slot pid)
            in
            Log.set_group_tag log pid;
            log)
      in
      let indexes =
        match cfg.layers with
        | One_layer -> Array.make parts None
        | Two_layer ->
            phase "index-rebuild" (fun pid ->
                let root_ptr =
                  Int64.to_int
                    (Arena.root_get arena (part_index_slot ~root_slot pid))
                in
                let idx = Avl_index.attach alloc ~ilog:logs.(pid) ~root_ptr in
                Avl_index.recover idx;
                Some idx)
      in
      make_t cfg alloc ~root_slot
        (Array.init parts (fun pid ->
             make_part pid logs.(pid) indexes.(pid)))
    end
  in
  recover_with t prof;
  t

(* -- convenience --------------------------------------------------------- *)

(* The paper's [persistent_atomic] block: commit on success, roll back on
   exception.  A simulated crash is not an exception the transaction can
   clean up after: the process it models is gone, and running [rollback]
   against the post-crash arena would durably append CLR/END records to a
   crash image whose undo stores are lost — recovery would then treat the
   half-done transaction as settled and redo its surviving updates.
   Settling the transaction is recovery's job. *)
let atomically ?home t f =
  let txn = begin_txn ?home t in
  match f txn with
  | v ->
      commit t txn;
      v
  | exception Arena.Crash -> raise Arena.Crash
  | exception e ->
      rollback t txn;
      raise e
