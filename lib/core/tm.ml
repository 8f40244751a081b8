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
   Both the checkpoint and recovery's selective clearing remove settled
   records in global LSN order with END records last *across* the
   partitions ({!remove_in_lsn_order}); recovery's wholesale clearing
   first raises a durable LSN floor that analysis filters by.  Either
   way a crash mid-clearing keeps the repeat-history invariant. *)

open Rewind_nvm

type policy = Force | No_force
type layers = One_layer | Two_layer

type config = {
  policy : policy;
  layers : layers;
  variant : Log.variant;
  bucket_cap : int;
  lockfree_latch : bool;
      (* Section 7 future work: a lock-free log fast path — appends pay a
         CAS instead of serialising on the latch. *)
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
    lockfree_latch = false;
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

let pp_recovery_report ppf r =
  Fmt.pf ppf
    "@[<h>scanned=%d torn=%d redo=%d finished=%d undone=%d@]"
    r.records_scanned r.torn_truncated r.redo_applied r.txns_finished
    r.txns_undone

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
  ended : (int, unit) Hashtbl.t;  (* committed/rolled back, awaiting clearing *)
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
  floor_slot : int option;
      (* root slot of the durable LSN floor, with more than one partition:
         records at or below it were cleared by a recovery whose
         partition-by-partition wholesale clearing a crash may have
         interrupted, and analysis ignores them *)
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
   [root_slot + 2 + 2*pid]; with more than one partition the LSN floor
   follows the last partition's slots.  [attach] validates the
   fingerprint before touching any log slot — re-attaching with, say, a
   different partition count used to silently misassign home partitions
   and read other partitions' anchors as its own. *)
let part_log_slot ~root_slot pid = root_slot + 1 + (2 * pid)
let part_index_slot ~root_slot pid = root_slot + 2 + (2 * pid)

let floor_slot cfg ~root_slot =
  if cfg.partitions > 1 then
    Some (part_log_slot ~root_slot cfg.partitions)
  else None

(* The fingerprint packs every recovery-relevant config field into one
   word: magic tag, partition count, policy, layers, log variant (plus
   Batch group size) and bucket capacity.  [lockfree_latch] is volatile
   scheduling policy — it does not change the durable layout — so it is
   recorded but masked out of the comparison. *)
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
  lor ((if cfg.lockfree_latch then 1 else 0) lsl 60)
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
    lockfree_latch = (w lsr 60) land 1 = 1;
    partitions = (w lsr 8) land 0xFF;
    incll = (w lsr 61) land 1 = 1;
  }

let semantic_config_bits w = w land lnot (1 lsl 60)

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

let () =
  Printexc.register_printer (function
    | Error e -> Some (error_message e)
    | _ -> None)

let misuse e = raise (Error e)

let check_cfg cfg ~root_slot =
  let invalid msg = misuse (Invalid_config msg) in
  if cfg.partitions < 1 then invalid "config.partitions must be at least 1";
  if cfg.incll && cfg.partitions <> 1 then
    invalid
      "incll is epoch-granular, not log-partitioned; config.partitions must \
       be 1";
  if cfg.incll && cfg.layers <> One_layer then
    invalid "incll keeps no record index; config.layers must be One_layer";
  let last_slot =
    Option.value (floor_slot cfg ~root_slot)
      ~default:(part_index_slot ~root_slot (cfg.partitions - 1))
  in
  if last_slot >= 63 then
    invalid
      (Printf.sprintf
         "%d partitions at root slot %d exceed the arena's 63 root slots"
         cfg.partitions root_slot)

let validate_stored_config arena cfg ~root_slot =
  let stored = Int64.to_int (Arena.root_get arena root_slot) in
  if stored = 0 then misuse (No_fingerprint { root_slot })
  else if stored land 0xFF <> config_magic then
    misuse (Not_a_fingerprint { root_slot; found = stored })
  else if semantic_config_bits stored <> semantic_config_bits (config_word cfg)
  then
    misuse
      (Fingerprint_mismatch
         {
           root_slot;
           stored = config_of_word stored;
           requested = cfg;
         })

let make_latch cfg =
  if cfg.lockfree_latch then
    Sim_mutex.create ~acquire_ns:30 ~contention_free:true ()
  else Sim_mutex.create ()

let make_part cfg pid log index =
  {
    pid;
    log;
    index;
    table = Txn_table.create ();
    latch = make_latch cfg;
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
    floor_slot = floor_slot cfg ~root_slot;
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
  (* a floor left behind by an earlier manager at this slot must not hide
     the fresh log's records; written after the fingerprint, so that every
     crash state of [create] still attaches *)
  Option.iter (fun slot -> Arena.root_set arena slot 0L)
    (floor_slot cfg ~root_slot);
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
        make_part cfg pid log index)
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

let fresh_lsn t = Sim_atomic.fetch_and_add t.next_lsn 1

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

(* Append a user record to [p].  In two-layer mode the AAVLT indexes
   records by their LSN (Section 3.4): every record becomes a tree node
   whose payload is the record's address, inserted in one atomic AAVLT
   operation, and the record is threaded onto its transaction's back-chain
   via the volatile transaction table. *)
let append_user_record t p txn_id r ~is_end =
  match p.index with
  | None -> Log.append ~is_end p.log r
  | Some idx ->
      let e = Txn_table.find_or_add p.table txn_id in
      (* Chain before the record becomes reachable. *)
      Record.set_prev_same_txn t.arena r e.Txn_table.last_record;
      let lsn = Record.lsn t.arena r in
      Avl_index.op idx (fun () ->
          let node = Avl_index.insert_in_op idx lsn in
          Avl_index.set_head_record idx node r);
      e.Txn_table.last_record <- r;
      (* The record is durable here: [Record.make] wrote it back and the
         AAVLT op's internal logging fenced at least once since. *)
      if is_end && txn_id <> 0 then
        Pmcheck.commit_point t.arena ~txn:txn_id ~addr:r ~len:Record.size_bytes
          ~what:"END record (AAVLT-indexed)"

(* Records are created "off-line" (Section 3.2) — outside the log latch —
   and only the atomic insertion is serialised, which is the fine-grained
   concurrency Section 4.7 claims.  One-layer word-sized updates take the
   inline fast path: the record is two tagged slot words, encoded outside
   the latch and stored by the append itself — no allocation, no separate
   record line.  (Two-layer user records stay full: the AAVLT indexes
   them by address and threads their back-chains.)  With a partitioned
   log the latch taken here is the transaction's home-partition latch —
   appends in different partitions never serialise against each other. *)
let log_update t txn_id ~addr ~old_value ~new_value =
  wal_only t "Tm.log_update";
  let p = home t txn_id in
  let lsn = fresh_lsn t in
  let inline =
    match p.index with
    | Some _ -> None
    | None ->
        if Log.inline_eligible p.log then
          Record.inline_encode ~lsn ~txn:txn_id ~typ:Record.Update ~addr
            ~old_value ~new_value ~undo_next:0
        else None
  in
  let r =
    match inline with
    | Some _ -> 0
    | None ->
        Record.make t.alloc ~lsn ~txn:txn_id ~typ:Record.Update ~addr
          ~old_value ~new_value ~undo_next:0 ~prev_same_txn:0
  in
  Sim_mutex.with_lock p.latch (fun () ->
      (match inline with
      | Some (w0, w1) -> ignore (Log.append_pair p.log ~txn:txn_id w0 w1)
      | None -> append_user_record t p txn_id r ~is_end:false);
      (* WAL declaration: [addr] now has an undo record.  Under Batch the
         record may still sit in an unpersisted group ([Log.pending] > 0),
         in which case the covered store must not reach NVM before the
         {!Pmcheck.group_persisted} of this partition. *)
      Pmcheck.region_logged ~group:p.pid t.arena ~txn:txn_id ~addr ~len:8
        ~durable:(Log.pending p.log = 0))

(* The paper's expanded-code pattern (Listing 2): log, then store. *)
let write t txn_id ~addr ~value =
  match t.incll with
  | Some i -> Incll.write i txn_id ~addr ~value
  | None -> (
      let old_value = Arena.read t.arena addr in
      log_update t txn_id ~addr ~old_value ~new_value:value;
      match (t.cfg.policy, t.cfg.variant) with
      | No_force, (Log.Simple | Log.Optimized) ->
          (* Thread-safe access to user data is the programmer's concern
             (Section 4.7); the cached store itself needs no TM latch. *)
          Arena.write t.arena addr value
      | Force, _ | No_force, Log.Batch _ ->
          (* The Batch deferral list is partition state: serialise on the
             home latch. *)
          let p = home t txn_id in
          Sim_mutex.with_lock p.latch (fun () -> user_write t p addr value))

let read t _txn_id ~addr = Arena.read t.arena addr

(* Record an intention to free NVM; the de-allocation itself happens only
   once the transaction's outcome is settled (Section 4.3). *)
let log_delete t txn_id ~addr ~size =
  wal_only t "Tm.log_delete";
  let p = home t txn_id in
  let lsn = fresh_lsn t in
  let r =
    Record.make t.alloc ~lsn ~txn:txn_id ~typ:Record.Delete ~addr
      ~old_value:(Int64.of_int size) ~new_value:0L ~undo_next:0
      ~prev_same_txn:0
  in
  Sim_mutex.with_lock p.latch (fun () ->
      append_user_record t p txn_id r ~is_end:false;
      p.deferred_deletes <- (txn_id, lsn, addr, size) :: p.deferred_deletes)

(* -- clearing ------------------------------------------------------------ *)

let record_txn t r = Record.txn t.arena r
let record_typ t r = Record.typ t.arena r

(* Remove the records of [p]'s log matching [pred]; END records last, so
   that an interrupted clearing is re-attempted identically after a crash
   (Section 4.6). *)
let remove_end_last t p pred =
  Log.remove_where p.log (fun r -> pred r && record_typ t r <> Record.End);
  Log.remove_where p.log (fun r -> pred r && record_typ t r = Record.End)

let free_deferred_deletes t p txn_id =
  let mine, rest =
    List.partition (fun (x, _, _, _) -> x = txn_id) p.deferred_deletes
  in
  List.iter (fun (_, _, addr, size) -> Alloc.free t.alloc addr size) mine;
  p.deferred_deletes <- rest

(* Two-layer: [f] over a transaction's records along its back-chain from
   [r], newest first. *)
let rec iter_chain t r f =
  if r <> 0 then begin
    f r;
    iter_chain t (Record.prev_same_txn t.arena r) f
  end

(* The one removal discipline for clearing many transactions' records at
   once, used by the checkpoint and by recovery's selective clearing: in
   *global* LSN order across every partition, END records last.  Each
   victim is its LSN, whether it is an END record (forced only after the
   sort, so a two-layer caller reads the type once) and its removal.

   Any other order breaks repeat history after a crash mid-clearing.
   Per partition, it can leave transaction A's old update in one
   partition's log after transaction B's newer committed update to the
   same word was already removed from another's, and the redo pass then
   resurrects the stale value.  Newest first, it can remove a committed
   transaction's END before its updates, and the next recovery undoes
   that transaction.  Each removal is one atomic tombstone or AAVLT
   operation, so a crash leaves exactly a *prefix* of this sequence
   applied. *)
let remove_in_lsn_order victims =
  let ends, others =
    List.partition
      (fun (_, is_end, _) -> Lazy.force is_end)
      (List.sort (fun (l1, _, _) (l2, _, _) -> compare l1 l2) victims)
  in
  List.iter (fun (_, _, remove) -> remove ()) others;
  List.iter (fun (_, _, remove) -> remove ()) ends

(* One-layer victims for {!remove_in_lsn_order}: every live record [r] of
   every partition [p]'s log with [pred p r]. *)
let log_victims t pred =
  let victims = ref [] in
  Array.iter
    (fun p ->
      Log.iter_h p.log (fun h r ->
          if pred p r then
            victims :=
              ( Record.lsn t.arena r,
                Lazy.from_val (record_typ t r = Record.End),
                fun () -> Log.remove_handle p.log h )
              :: !victims))
    t.parts;
  !victims

(* Force-policy clearing of one settled transaction, END record last.
   Two-layer: walk its back-chain and delete each record's tree node,
   oldest first — the END record is the newest. *)
let clear_txn t p txn_id =
  match (p.index, Txn_table.find p.table txn_id) with
  | None, _ -> remove_end_last t p (fun r -> record_txn t r = txn_id)
  | Some _, None -> ()
  | Some idx, Some e ->
      let oldest_first = ref [] in
      iter_chain t e.Txn_table.last_record (fun r ->
          oldest_first := r :: !oldest_first);
      List.iter
        (fun r ->
          ignore (Avl_index.remove idx (Record.lsn t.arena r));
          Record.free t.alloc r)
        !oldest_first;
      Txn_table.remove p.table txn_id

(* -- commit --------------------------------------------------------------- *)

(* Append a control record (END, CLR or PREPARE) to [p]: the compact
   one-layer append — payload-free ENDs and small CLRs go inline — or,
   under two layers, a full record the AAVLT indexes. *)
let append_control t p txn_id ~typ ~is_end ?(addr = 0) ?(old_value = 0L)
    ?(new_value = 0L) ?(undo_next = 0) () =
  match p.index with
  | None ->
      ignore
        (Log.append_record ~is_end p.log ~lsn:(fresh_lsn t) ~txn:txn_id ~typ
           ~addr ~old_value ~new_value ~undo_next)
  | Some _ ->
      let r =
        Record.make t.alloc ~lsn:(fresh_lsn t) ~txn:txn_id ~typ ~addr
          ~old_value ~new_value ~undo_next ~prev_same_txn:0
      in
      append_user_record t p txn_id r ~is_end

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
      Incll.commit i txn_id;
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
              append_end t p txn_id;
              if clear then begin
                clear_txn t p txn_id;
                free_deferred_deletes t p txn_id
              end
          | No_force ->
              (* The END record forces the batch group; buffered stores
                 can then reach the (volatile) cache. *)
              append_end t p txn_id;
              drain_deferred t p;
              Hashtbl.replace p.ended txn_id ());
          Pmcheck.txn_settled t.arena ~txn:txn_id)

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
  append_control t p txn_id ~typ:Record.Clr ~is_end:durably ~addr ~old_value
    ~new_value:restored ~undo_next ();
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
  | Record.End | Record.Checkpoint | Record.Delete | Record.Rollback
  | Record.Prepare ->
      ()

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
  | Some i -> Incll.savepoint i txn_id
  | None -> Sim_atomic.get t.next_lsn

let rollback_to t txn_id (sp : savepoint) =
  match t.incll with
  | Some i -> Incll.rollback_to i txn_id sp
  | None ->
      let p = home t txn_id in
      Sim_mutex.with_lock p.latch (fun () ->
          let durably = t.cfg.policy = Force in
          let bound = ref max_int in
          (match p.index with
          | None ->
              (* Backward scan with the Algorithm-2 bound so repeated
                 partial rollbacks never re-undo compensated updates; stop
                 at the first of this transaction's records below the
                 savepoint. *)
              Log.iter_back_while p.log (fun r ->
                  if record_txn t r <> txn_id then true
                  else
                    let lsn = Record.lsn t.arena r in
                    if lsn < sp then false
                    else begin
                      undo_step t p txn_id ~durably ~bound
                        ~lsn:(Lazy.from_val lsn) r;
                      true
                    end)
          | Some idx -> (
              match Txn_table.find p.table txn_id with
              | None -> ()
              | Some e ->
                  let rec go r =
                    if r <> 0 then begin
                      let next = Record.prev_same_txn t.arena r in
                      let lsn = Record.lsn t.arena r in
                      if lsn >= sp then begin
                        undo_step t p txn_id ~durably ~bound
                          ~before_undo:(fun () ->
                            ignore (Avl_index.find idx lsn))
                          ~lsn:(Lazy.from_val lsn) r;
                        go next
                      end
                    end
                  in
                  go e.Txn_table.last_record));
          (* deferred de-allocations requested after the savepoint are
             void *)
          p.deferred_deletes <-
            List.filter
              (fun (x, lsn, _, _) -> x <> txn_id || lsn < sp)
              p.deferred_deletes)

let rollback t txn_id =
  match t.incll with
  | Some i ->
      Incll.rollback i txn_id;
      t.rollbacks <- t.rollbacks + 1
  | None ->
      let p = home t txn_id in
      Sim_mutex.with_lock p.latch (fun () ->
          t.rollbacks <- t.rollbacks + 1;
          (* Settle any deferred (Batch) user stores *before* undoing, or
             a stale pending store could overwrite a restored value. *)
          flush_pending t p;
          let durably = t.cfg.policy = Force in
          let bound = ref max_int in
          (match p.index with
          | None ->
              (* No per-transaction chain: a full backward scan of the
                 home partition skipping other transactions' records (the
                 "skip records" of Section 5.1) — every record of [txn_id]
                 lives there.  The Algorithm-2 bound makes the scan
                 idempotent: resolving an in-doubt transaction as aborted
                 after a crash mid-rollback must not re-undo
                 already-compensated updates. *)
              Log.iter_back p.log (fun r ->
                  if record_txn t r = txn_id then
                    undo_step t p txn_id ~durably ~bound
                      ~lsn:(lazy (Record.lsn t.arena r))
                      r)
          | Some idx -> (
              match Txn_table.find p.table txn_id with
              | None -> ()
              | Some e ->
                  let rec go r =
                    if r <> 0 then begin
                      let next = Record.prev_same_txn t.arena r in
                      (* each record is retrieved through the AAVLT
                         (Section 4.4) *)
                      ignore (Avl_index.find idx (Record.lsn t.arena r));
                      undo_step t p txn_id ~durably ~bound
                        ~lsn:(lazy (Record.lsn t.arena r))
                        r;
                      go next
                    end
                  in
                  go e.Txn_table.last_record));
          Log.flush_group p.log;
          append_end t p txn_id;
          drain_deferred t p;
          p.deferred_deletes <-
            List.filter (fun (x, _, _, _) -> x <> txn_id) p.deferred_deletes;
          (match t.cfg.policy with
          | Force -> clear_txn t p txn_id
          | No_force -> Hashtbl.replace p.ended txn_id ());
          Pmcheck.txn_settled t.arena ~txn:txn_id)

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
      append_control t p txn_id ~typ:Record.Prepare ~is_end:true
        ~old_value:(Int64.of_int gtid) ();
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

let checkpoint t =
  match t.incll with
  | Some i ->
      (* best effort: under load the advance waits for a quiescent
         checkpoint — deferring durability is safe, splitting a
         transaction across epochs is not *)
      Incll.advance_if_quiescent ~span:(hot_span t "epoch-advance") i
  | None ->
  hot_span t "checkpoint" @@ fun () ->
  with_all_latches t 0 (fun () ->
      hot_span t "cp-persist" (fun () ->
          (* Persist every partition's batch cursor first: otherwise
             flushed user data could refer to untrusted log slots after a
             crash.  Each partition then gets its own CHECKPOINT record
             marking the durable point, inserted before the cache
             flush. *)
          let cps =
            Array.map
              (fun p ->
                flush_pending t p;
                let cp =
                  Record.make t.alloc ~lsn:(fresh_lsn t) ~txn:0
                    ~typ:Record.Checkpoint ~addr:0 ~old_value:0L
                    ~new_value:0L ~undo_next:0 ~prev_same_txn:0
                in
                Log.append ~is_end:true p.log cp;
                cp)
              t.parts
          in
          Arena.flush_all t.arena;
          Arena.fence t.arena;
          (* Section 4.6: the CHECKPOINT records and every user update are
             now durable; clearing may begin. *)
          Array.iter
            (fun cp ->
              Pmcheck.expect_persisted t.arena ~addr:cp ~len:Record.size_bytes
                ~what:"checkpoint record before log clearing")
            cps);
      hot_span t "cp-clear" (fun () ->
          (* Clear every settled transaction's records together, in
             {!remove_in_lsn_order}. *)
          let settled p = Hashtbl.fold (fun id () acc -> id :: acc) p.ended [] in
          remove_in_lsn_order
            (match t.cfg.layers with
            | One_layer ->
                log_victims t (fun p r ->
                    let x = record_txn t r in
                    x <> 0 && Hashtbl.mem p.ended x)
            | Two_layer ->
                let victims = ref [] in
                Array.iter
                  (fun p ->
                    match p.index with
                    | None -> ()
                    | Some idx ->
                        List.iter
                          (fun id ->
                            match Txn_table.find p.table id with
                            | None -> ()
                            | Some e ->
                                iter_chain t e.Txn_table.last_record (fun r ->
                                    let lsn = Record.lsn t.arena r in
                                    victims :=
                                      ( lsn,
                                        lazy (record_typ t r = Record.End),
                                        fun () ->
                                          ignore (Avl_index.remove idx lsn);
                                          Record.free t.alloc r )
                                      :: !victims))
                          (settled p))
                  t.parts;
                !victims);
          Array.iter
            (fun p ->
              List.iter
                (fun id ->
                  (* two-layer only: one-layer tables stay empty *)
                  Txn_table.remove p.table id;
                  free_deferred_deletes t p id)
                (settled p);
              Hashtbl.reset p.ended;
              (* The checkpoint record has served its purpose. *)
              Log.remove_where p.log (fun r ->
                  record_typ t r = Record.Checkpoint))
            t.parts);
      (* Compact any partition that clearing left mostly gaps
         (long-running transactions spanning otherwise-empty buckets,
         Section 3.3). *)
      hot_span t "cp-compact" (fun () ->
          Array.iter (fun p -> Log.compact ~threshold:0.25 p.log) t.parts))

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

(* The durable LSN floor (0 with one partition, which keeps none). *)
let lsn_floor t =
  match t.floor_slot with
  | None -> 0
  | Some slot -> Int64.to_int (Arena.root_get t.arena slot)

(* Raise the floor over every LSN handed out so far.  Recovery's wholesale
   clearing does this first: it swings one root per partition, and a
   crash between two swings must not let the surviving partitions' older
   records be redone over state that the cleared partitions' newer records
   produced. *)
let raise_lsn_floor t =
  Option.iter
    (fun slot ->
      Arena.root_set t.arena slot
        (Int64.of_int (Sim_atomic.get t.next_lsn - 1)))
    t.floor_slot

(* Checksum gate used by two-layer recovery before a tree-indexed record
   is interpreted: plausibly addressed, then CRC-intact.  (One-layer logs
   truncate torn records at attach, so every record they yield is
   intact.) *)
let record_intact t r =
  r >= 0
  && r land (Record.size_bytes - 1) = 0
  && r + Record.size_bytes <= Arena.size t.arena
  && Record.verify t.arena r

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
   on it.  Two-layer: the AAVLT's in-order traversal; a record failing its
   checksum is a torn write, reported to [on_torn] and dropped.  Records
   at or below the LSN [floor] were already cleared and are dropped too. *)
let part_stream t ~payload ~floor ~on_torn p =
  let acc = ref [] in
  let keep r =
    let e = decode t ~payload r in
    if e.lsn > floor then acc := e :: !acc
  in
  (match p.index with
  | None -> Log.iter p.log keep
  | Some idx ->
      Avl_index.iter idx (fun n ->
          let r = Avl_index.head_record idx n in
          if record_intact t r then keep r else on_torn ()));
  List.sort (fun a b -> compare a.lsn b.lsn) !acc

(* Every partition's decoded stream, each decoded on its own recovery
   fiber, merged into global LSN order at the join: the stream analysis
   builds and redo and undo replay. *)
let decoded_log t prof ~payload ~floor ~on_torn =
  merge_ascending
    (on_partition_fibers prof (Arena.stats t.arena)
       ~parts:(Array.length t.parts) "analysis" (fun pid ->
         part_stream t ~payload ~floor ~on_torn t.parts.(pid)))

let merged_log_records t =
  List.map
    (fun e -> e.r)
    (decoded_log t (Probe.create ()) ~payload:false ~floor:(lsn_floor t)
       ~on_torn:ignore)

(* Analysis: decode every partition once into the merged stream and
   rebuild each transaction's entry in its home partition's table (a
   transaction's records all live in its home partition).  The LSN and
   transaction-id high-water marks are global maxima over every
   partition, and LSNs continue above the floor even when every record
   lies below it.  Returns the stream and the number of transactions
   found finished. *)
let analysis t prof ~on_torn =
  Array.iter (fun p -> Txn_table.clear p.table) t.parts;
  let floor = lsn_floor t in
  let stream =
    decoded_log t prof ~payload:(t.cfg.policy = No_force) ~floor ~on_torn
  in
  let max_lsn = ref 0 and max_txn = ref 0 in
  List.iter
    (fun e ->
      if e.lsn > !max_lsn then max_lsn := e.lsn;
      if e.txn > !max_txn then max_txn := e.txn;
      if e.txn <> 0 then begin
        let te = Txn_table.find_or_add (home t e.txn).table e.txn in
        te.Txn_table.last_record <- e.r;
        match e.typ with
        | Record.End -> te.Txn_table.status <- Txn_table.Finished
        | Record.Rollback -> te.Txn_table.status <- Txn_table.Aborted
        | Record.Prepare ->
            te.Txn_table.status <- Txn_table.Prepared;
            Hashtbl.replace t.prepared_gtids e.txn
              (Int64.to_int (Record.old_value t.arena e.r))
        | Record.Update | Record.Clr | Record.Delete | Record.Checkpoint -> ()
      end)
    stream;
  Sim_atomic.set t.next_lsn (max !max_lsn floor + 1);
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
      | Record.End | Record.Checkpoint | Record.Delete | Record.Rollback
      | Record.Prepare ->
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
            | Record.End | Record.Checkpoint | Record.Delete | Record.Rollback
            | Record.Prepare ->
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
            (if Hashtbl.mem to_mark_rollback e.Txn_table.id then
               let r =
                 Record.make t.alloc ~lsn:(fresh_lsn t) ~txn:e.Txn_table.id
                   ~typ:Record.Rollback ~addr:0 ~old_value:0L ~new_value:0L
                   ~undo_next:0 ~prev_same_txn:0
               in
               Log.append p.log r);
            append_end t p e.Txn_table.id;
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
              let rec go r =
                if r <> 0 then
                  if not (record_intact t r) then
                    (* torn link: the chain beyond it predates the tear
                       and was settled by earlier groups — stop here *)
                    on_torn ()
                  else begin
                    let next = Record.prev_same_txn t.arena r in
                    undo_step t p x ~durably ~bound
                      ~before_undo:(fun () ->
                        ignore (Avl_index.find idx (Record.lsn t.arena r)))
                      ~lsn:(lazy (Record.lsn t.arena r))
                      r;
                    go next
                  end
              in
              go head;
              append_end t p x;
              e.Txn_table.status <- Txn_table.Finished)
            losers)
    t.parts;
  !total

(* Persist every partition's pending group and deferred stores, then the
   whole cache: the recovered state is durable before any clearing.
   Buffered Batch stores must land before the flush or they would be
   silently dropped. *)
let persist_recovered t =
  Array.iter (flush_pending t) t.parts;
  Arena.flush_all t.arena;
  Arena.fence t.arena

(* Two-layer index clearing, ahead of the log clearing: wholesale, one
   atomic root swing per partition, when nothing is in doubt; otherwise
   every record outside the in-doubt set, in {!remove_in_lsn_order}, so
   that in-doubt chains survive until [resolve_in_doubt].  Torn records
   leak, like every volatile free list across a crash. *)
let clear_indexes t prof ~wholesale =
  if wholesale then
    Array.iter
      (fun p ->
        part_span t prof "clearing" p @@ fun () ->
        match p.index with
        | None -> ()
        | Some idx ->
            let records = ref [] in
            Avl_index.iter idx (fun n ->
                let r = Avl_index.head_record idx n in
                if record_intact t r then records := r :: !records);
            Avl_index.clear idx;
            List.iter (fun r -> Record.free t.alloc r) !records)
      t.parts
  else begin
    let victims = ref [] in
    Array.iter
      (fun p ->
        match p.index with
        | None -> ()
        | Some idx ->
            Avl_index.iter idx (fun n ->
                let r = Avl_index.head_record idx n in
                let intact = record_intact t r in
                if not (intact && Hashtbl.mem t.prepared_gtids (record_txn t r))
                then begin
                  let lsn = Avl_index.key idx n in
                  victims :=
                    ( lsn,
                      lazy (intact && record_typ t r = Record.End),
                      fun () ->
                        ignore (Avl_index.remove idx lsn);
                        if intact then Record.free t.alloc r )
                    :: !victims
                end))
      t.parts;
    remove_in_lsn_order !victims
  end

let clear_after_recovery t prof =
  (* Every transaction is settled except the in-doubt set; make the
     recovered state durable *before* dropping records — a crash here
     must still find the log able to repeat history — then clear the
     logs.  With nothing in doubt this is the paper's wholesale three-step
     swap (Section 4.5), one root swing per partition, behind a raised LSN
     floor when there are several; otherwise clearing is selective — an
     in-doubt transaction's records (UPDATE/DELETE/PREPARE and any CLRs
     from an interrupted abort resolution) must survive until
     [resolve_in_doubt], across any number of further crashes. *)
  let in_doubt_txn x = Hashtbl.mem t.prepared_gtids x in
  let wholesale = Hashtbl.length t.prepared_gtids = 0 in
  persist_recovered t;
  if wholesale then raise_lsn_floor t;
  if t.cfg.layers = Two_layer then begin
    clear_indexes t prof ~wholesale;
    persist_recovered t
  end;
  (match (t.cfg.layers, wholesale) with
  | _, true ->
      Array.iter
        (fun p ->
          Log.clear_all p.log;
          Txn_table.clear p.table)
        t.parts
  | One_layer, false ->
      (* tombstone everything settled; one-layer resolution re-scans the
         log, so the volatile tables can go *)
      remove_in_lsn_order
        (log_victims t (fun _ r -> not (in_doubt_txn (record_txn t r))));
      Array.iter (fun p -> Txn_table.clear p.table) t.parts
  | Two_layer, false ->
      (* the bottom-layer (AAVLT-internal) logs hold only settled internal
         records; in-doubt user records live in the indexes, cleared
         selectively above.  Keep the in-doubt table entries: their
         chains drive resolution. *)
      Array.iter
        (fun p ->
          Log.clear_all p.log;
          let dead = ref [] in
          Txn_table.iter p.table (fun e ->
              if e.Txn_table.status <> Txn_table.Prepared then
                dead := e.Txn_table.id :: !dead);
          List.iter (fun id -> Txn_table.remove p.table id) !dead)
        t.parts);
  Array.iter
    (fun p ->
      Hashtbl.reset p.ended;
      p.deferred_deletes <- [];
      p.deferred <- [])
    t.parts;
  (* Rebuild the in-doubt transactions' deferred de-allocation intentions
     from their surviving DELETE records: a commit decision frees them, an
     abort drops them. *)
  if not wholesale then
    Array.iter
      (fun p ->
        let note r =
          let x = record_txn t r in
          if in_doubt_txn x && record_typ t r = Record.Delete then
            p.deferred_deletes <-
              ( x,
                Record.lsn t.arena r,
                Record.addr t.arena r,
                Int64.to_int (Record.old_value t.arena r) )
              :: p.deferred_deletes
        in
        match t.cfg.layers with
        | One_layer -> Log.iter p.log note
        | Two_layer ->
            Txn_table.iter p.table (fun e ->
                iter_chain t e.Txn_table.last_record note))
      t.parts

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
  Probe.span prof pstats "clearing" (fun () -> clear_after_recovery t prof);
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
             make_part cfg pid logs.(pid) indexes.(pid)))
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
