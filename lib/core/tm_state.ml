(* The WAL manager's state, and the log steps that {!Tm}'s transactions
   and {!Recovery} both take: the configuration, the log partitions with
   their tables, forming and appending records, WAL-ordered user stores,
   Algorithm 2's undo step and the durable LSN horizon.  In-cache-line
   logging keeps none of it: {!Tm} holds that protocol beside this state,
   not inside it.

   Partitioned logging (Section 4.7 / Section 5's multithreaded results):
   the log can be sharded into [partitions] independent partitions, each a
   full recoverable bucketed-ADLL log with its own latch, current-bucket
   cursor, group-flush state and Batch last-persistent index — plus its
   own two-layer AAVLT and its transaction table, which holds everything
   the manager knows about each transaction homed there.  A transaction
   is pinned to a *home partition* by its id (round-robin), so the append
   fast path touches only partition-local state; the LSN counter stays one
   process-wide instrumented atomic ({!Sim_atomic}), so a single global
   order over all records survives.

   Clearing many transactions at once follows one rule, the durable LSN
   horizon H = min(next LSN, first LSN of every unsettled transaction):
   every record below H is settled and durable, analysis skips it, and
   removing it needs no order.  Only force-policy clearing of a single
   transaction keeps one (END last, {!Log.remove_handles}). *)

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
  cells_scanned : int;    (* InCLL: registered cells the epoch scan read *)
  cells_rewound : int;    (* InCLL: cells rewound to their in-line undo *)
}

(* Transaction-id counters, which {!Tm} keeps for either protocol and
   WAL recovery reseeds: partition [p]'s next id is [first_txn + seq *
   partitions + p], so the home partition stays a pure function of the
   id even when the caller pins a transaction explicitly ([begin_txn
   ?home]). *)
type ids = {
  next_seq : int Sim_atomic.t array;  (* per-partition sequence numbers *)
  next_home : int Sim_atomic.t;
      (* round-robin cursor assigning homes to transactions whose caller
         did not pin one *)
}

let make_ids n =
  {
    next_seq = Array.init n (fun _ -> Sim_atomic.make 0);
    next_home = Sim_atomic.make 0;
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
      (* every transaction homed here, from its begin until it settles
         (no-force: until a checkpoint retires it) *)
  latch : Sim_mutex.t;
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
  parts : part array;
  next_lsn : int Sim_atomic.t;  (* one global counter: LSNs order records
                               across all partitions *)
  horizon_slot : int;  (* root slot of the durable LSN horizon *)
}

(* Reserved txn id 0 belongs to the AAVLT's internal logging. *)
let first_txn = 1

(* Root-slot layout: the manager's first slot holds a durable
   configuration fingerprint (written once at [create]); partition [p]
   then anchors its log at [root_slot + 1 + 2*pid] and its AAVLT root at
   [root_slot + 2 + 2*pid]; the LSN horizon follows the last partition's
   slots.  [attach] validates the fingerprint before touching any log
   slot — re-attaching with, say, a different partition count used to
   silently misassign home partitions and read other partitions' anchors
   as its own. *)
let part_log_slot ~root_slot pid = root_slot + 1 + (2 * pid)
let part_index_slot ~root_slot pid = root_slot + 2 + (2 * pid)

let horizon_slot (cfg : config) ~root_slot =
  part_log_slot ~root_slot cfg.partitions

let make_part pid log index =
  {
    pid;
    log;
    index;
    table = Txn_table.create ();
    latch = Sim_mutex.create ();
    deferred = [];
  }

let make_t cfg alloc ~root_slot parts =
  {
    cfg;
    alloc;
    arena = Alloc.arena alloc;
    parts;
    next_lsn = Sim_atomic.make 1;
    horizon_slot = horizon_slot cfg ~root_slot;
  }

(* The next LSN, taken by the transaction of entry [e]; its first is
   recorded as [e]'s first LSN in the same scheduler step (nothing here
   yields), before it can wait for its home latch. *)
let fresh_lsn t (e : Txn_table.entry) =
  let lsn = Sim_atomic.fetch_and_add t.next_lsn 1 in
  if e.first_lsn = 0 then e.first_lsn <- lsn;
  lsn

(* A transaction's home partition, a pure function of its id: round-robin
   over the partitions.  Deterministic, so recovery needs no pinning map —
   a transaction's records are found exactly where logging put them. *)
let home_partition t txn = (txn - first_txn) mod Array.length t.parts
let home t txn = t.parts.(home_partition t txn)

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

(* Form a record of [e]'s transaction for [p] and return the step that
   puts it into [p]'s log; the caller takes [p]'s latch for that step.
   One layer: {!Log.form} decides the record's form.  Two layers: the
   record is full, because the AAVLT indexes records by their LSN
   (Section 3.4): its put inserts a tree node whose payload is the
   record's address in one atomic AAVLT operation, and threads the
   record onto the transaction's back-chain via its table entry. *)
let form t p (e : Txn_table.entry) ~lsn ~typ ~addr ~old_value ~new_value
    ~undo_next =
  match p.index with
  | None ->
      let r =
        Log.form p.log ~lsn ~txn:e.id ~typ ~addr ~old_value ~new_value
          ~undo_next
      in
      fun ~is_end -> ignore (Log.put ~is_end p.log r)
  | Some idx ->
      let r =
        Record.make t.alloc ~lsn ~txn:e.id ~typ ~addr ~old_value ~new_value
          ~undo_next ~prev_same_txn:0
      in
      fun ~is_end ->
        (* Chain before the record becomes reachable. *)
        Record.set_prev_same_txn t.arena r e.last_record;
        Avl_index.op idx (fun () ->
            let node = Avl_index.insert_in_op idx lsn in
            Avl_index.set_head_record idx node r);
        e.last_record <- r;
        (* The record is durable here: [Record.make] wrote it back and the
           AAVLT op's internal logging fenced at least once since. *)
        if is_end then
          Pmcheck.commit_point t.arena ~txn:e.id ~addr:r
            ~len:Record.size_bytes ~what:"END record (AAVLT-indexed)"

let record_txn t r = Record.txn t.arena r
let record_typ t r = Record.typ t.arena r

(* Two-layer: walk a transaction's back-chain from [r], newest first.
   Each record must pass [readable] before its link is read; then [f]
   sees it, and the walk goes on while [f] returns [true]. *)
let rec iter_chain ?(readable = fun _ -> true) t r f =
  if r <> 0 && readable r then begin
    let next = Record.prev_same_txn t.arena r in
    if f r then iter_chain ~readable t next f
  end

(* [f] over the entries of every partition's table. *)
let fold_entries t f acc =
  Array.fold_left (fun acc p -> Txn_table.fold p.table f acc) acc t.parts

(* The horizon the current state allows: min(next LSN, first LSN of
   every unsettled transaction).  The next LSN is read first — a
   transaction that takes its first LSN after the read takes one at or
   above it. *)
let horizon t =
  let next = Sim_atomic.get t.next_lsn in
  fold_entries t
    (fun e h ->
      if e.status <> Txn_table.Finished && e.first_lsn > 0 then
        min e.first_lsn h
      else h)
    next

(* The transactions in doubt — PREPARE logged, outcome not yet
   resolved — with their global (2PC) ids, by local id. *)
let in_doubt t =
  fold_entries t
    (fun e acc ->
      match e.status with
      | Txn_table.Prepared gtid -> (e.id, gtid) :: acc
      | Running | Aborted | Finished -> acc)
    []
  |> List.sort compare

(* Persist every partition's pending group and deferred stores, then the
   whole cache: every settled transaction's effects are durable, and the
   horizon may pass them.  Buffered Batch stores must land before the
   flush or they would be silently dropped.  With nothing written back
   since the last fence (a force-policy recovery whose undo found nothing
   to restore), the closing fence would order nothing and is skipped.
   The checkpoint's write-back, on the checkpointing fiber alone;
   recovery's clearing splits the same write-back across its fibers
   ([Recovery.persist_shares]). *)
let persist_all t =
  Array.iter (flush_pending t) t.parts;
  Arena.flush_all t.arena;
  Arena.fence_if_needed t.arena

(* Durably store the horizon [h] ([Arena.root_set] fences); the caller
   has just made every settled effect durable ({!persist_all}). *)
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

(* Append a control record (END, CLR, PREPARE or recovery's ROLLBACK)
   of [e]'s transaction to [p], formed under the latch.  Returns its
   LSN. *)
let append_control t p e ~typ ~is_end ?(addr = 0) ?(old_value = 0L)
    ?(new_value = 0L) ?(undo_next = 0) () =
  let lsn = fresh_lsn t e in
  form t p e ~lsn ~typ ~addr ~old_value ~new_value ~undo_next ~is_end;
  lsn

let append_end t p e = append_control t p e ~typ:Record.End ~is_end:true ()

(* Write a CLR recording the undo of [rec], then apply the undo.  The CLR's
   new value is the restored (old) value; [undo_next] carries the undone
   record's LSN so that Algorithm 2 can skip past it after a crash.  The
   CLR lands in the transaction's home partition, like every record of the
   transaction. *)
let undo_one t p (e : Txn_table.entry) rec_ ~durably =
  let addr = Record.addr t.arena rec_ in
  let restored = Record.old_value t.arena rec_ in
  let undo_next = Record.lsn t.arena rec_ in
  (* write-only (never read by redo or undo): the compact one-layer format
     drops it *)
  let old_value = Record.new_value t.arena rec_ in
  ignore
    (append_control t p e ~typ:Record.Clr ~is_end:durably ~addr ~old_value
       ~new_value:restored ~undo_next ());
  Pmcheck.region_logged ~group:p.pid t.arena ~txn:e.id ~addr ~len:8
    ~durable:(Log.pending p.log = 0);
  (* Route the restore through the same WAL-ordered store path as forward
     writes: under Batch it must stay buffered behind the CLR's group (and
     behind any still-pending forward store to the same line). *)
  user_write t p addr restored

(* Algorithm 2's undo step, for one record [r] of type [typ] in a
   backward walk over the records of [e]'s transaction: a CLR lowers
   [bound] to the LSN its undo resumed from, so already-compensated
   updates are skipped; an UPDATE below the bound is undone,
   [before_undo] first.  [lsn] is forced only for an UPDATE — each walk
   reads a record's type and LSN when it always has. *)
let undo_step t p e ~durably ~bound ?(before_undo = ignore) ~typ ~lsn r =
  match typ with
  | Record.Clr -> bound := Record.undo_next t.arena r
  | Record.Update ->
      if Lazy.force lsn < !bound then begin
        before_undo ();
        undo_one t p e r ~durably
      end
  | Record.End | Record.Delete | Record.Rollback | Record.Prepare ->
      ()
