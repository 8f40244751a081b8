(* The transaction recovery manager (Section 4).

   Four configurations, as in the paper's design space:
   - policy: [Force] (user updates reach NVM with non-temporal stores; the
     transaction's log records are cleared at commit; two-phase recovery)
     or [No_force] (user updates are cached; checkpoints clear the log;
     three-phase recovery with a redo pass);
   - layers: [One_layer] (the bucket/ADLL log holds user records directly;
     the volatile transaction table costs nothing while logging) or
     [Two_layer] (the AAVLT indexes records by transaction and acts as the
     persistent transaction table; the bucket log underneath holds only
     the AAVLT's own pending writes).

   The log implementation (Simple / Optimized / Batch) is picked
   independently, giving the paper's Simple/Optimized/Batch REWIND
   versions.

   In-cache-line logging ([incll]) is not one of them: it keeps no
   write-ahead log at all.  A manager is the WAL manager or InCLL beside
   it, and every entry point dispatches once between the two: the InCLL
   arm delegates to {!Incll}, which owns that protocol's transaction
   layer, or refuses a WAL-only operation.

   The WAL manager's state and the log steps its transactions share with
   restart live in {!Tm_state}; WAL restart, from the structural attach
   to log clearing, is {!Recovery}. *)

open Rewind_nvm
include Tm_state

let default_config =
  {
    policy = No_force;
    layers = One_layer;
    variant = Log.Optimized;
    bucket_cap = 1000;
    partitions = 1;
    incll = false;
  }

let pp_config ppf (c : config) =
  if c.incll then Fmt.string ppf "InCLL"
  else begin
    Fmt.pf ppf "%s-%s/%a"
      (match c.layers with One_layer -> "1L" | Two_layer -> "2L")
      (match c.policy with Force -> "FP" | No_force -> "NFP")
      Log.pp_variant c.variant;
    if c.partitions > 1 then Fmt.pf ppf "x%d" c.partitions
  end

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

(* The manager: the WAL state, or InCLL beside it — its epoch region and
   the configuration it was given.  What both protocols share lives
   once, here: the transaction ids, the counts, the hot-path probe and
   what recovery did. *)
type protocol = Wal of Tm_state.t | Incll of { incll : Incll.t; cfg : config }

type t = {
  protocol : protocol;
  ids : ids;
      (* one partition's counters under InCLL, so its ids run 1, 2, 3 *)
  stats : Stats.t;  (* the arena's, charged by the hot-path spans *)
  mutable commits : int;
  mutable rollbacks : int;
  mutable probe : Probe.t option;
      (* when set, the commit/rollback/checkpoint hot paths charge spans
         to it *)
  recovery : (recovery_report * Probe.t) option;
      (* what [attach]'s recovery did, and its per-phase profile *)
}

let make ?recovery arena ids protocol =
  {
    protocol;
    ids;
    stats = Arena.stats arena;
    commits = 0;
    rollbacks = 0;
    probe = None;
    recovery;
  }

(* InCLL anchors its epoch counter and cell directory in the two slots
   after the fingerprint, where a WAL manager's partition 0 anchors its
   log and index, and keeps no horizon.  [check_cfg] gives it one
   partition. *)
let create ?(cfg = default_config) alloc ~root_slot =
  check_cfg cfg ~root_slot;
  let arena = Alloc.arena alloc in
  Arena.root_set arena root_slot (Int64.of_int (config_word cfg));
  let make = make arena (make_ids cfg.partitions) in
  if cfg.incll then
    make (Incll { incll = Incll.create alloc ~root_slot:(root_slot + 1); cfg })
  else begin
    (* a horizon left behind by an earlier manager at this slot must not
       hide the fresh log's records; written after the fingerprint, so
       that every crash state of [create] still attaches *)
    Arena.root_set arena (horizon_slot cfg ~root_slot) 0L;
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
    make (Wal (make_t cfg alloc ~root_slot parts))
  end

let config t = match t.protocol with Wal w -> w.cfg | Incll { cfg; _ } -> cfg

(* [f] of the WAL manager, or InCLL's answer [incll]: the WAL-shaped
   accessors answer under InCLL as for one partition with an empty log. *)
let on_wal t ~incll f = match t.protocol with Wal w -> f w | Incll _ -> incll
let partitions t = on_wal t ~incll:1 (fun w -> Array.length w.parts)
let parts t = on_wal t ~incll:[||] (fun w -> w.parts)

(* The WAL manager, for WAL-only operation [op]: InCLL keeps no log. *)
let wal t op =
  match t.protocol with Wal w -> w | Incll _ -> misuse (Wal_only op)

let log t = (wal t "Tm.log").parts.(0).log
let logs t = Array.map (fun p -> p.log) (parts t)
let commits t = t.commits
let rollbacks t = t.rollbacks
let set_probe t p = t.probe <- p

(* Per partition latch: simulated ns acquirers waited for it, and ns it
   was held ({!Sim_mutex.wait_ns}, {!Sim_mutex.hold_ns}). *)
let latch_wait_ns t = Array.map (fun p -> Sim_mutex.wait_ns p.latch) (parts t)
let latch_hold_ns t = Array.map (fun p -> Sim_mutex.hold_ns p.latch) (parts t)

let last_recovery t = Option.map fst t.recovery
let last_recovery_profile t = Option.map snd t.recovery

let home_partition t txn =
  on_wal t ~incll:0 (fun w -> Tm_state.home_partition w txn)

let in_doubt t = on_wal t ~incll:[] Tm_state.in_doubt
let merged_log_records t = on_wal t ~incll:[] Recovery.merged_log_records

(* Charge [f] to phase [name] of the attached hot-path probe, if any. *)
let hot_span t name f =
  match t.probe with None -> f () | Some p -> Probe.span p t.stats name f

let active_transactions t =
  match t.protocol with
  | Wal w ->
      fold_entries w
        (fun e n -> if e.status <> Txn_table.Finished then n + 1 else n)
        0
  | Incll { incll; _ } -> Incll.active incll

(* [txn]'s entry in its home partition's table, if it has one. *)
let entry w txn =
  if txn < first_txn then None else Txn_table.find (home w txn).table txn

(* [txn]'s home partition and its entry there, which must be open: begun
   and not settled. *)
let open_entry w txn =
  match entry w txn with
  | Some e when e.status <> Txn_table.Finished -> (home w txn, e)
  | _ -> misuse (Txn_not_open txn)

(* [e]'s transaction is settled at [end_lsn]: the horizon may pass its
   records.  Under force they are gone and it leaves the table; under
   no-force it stays until {!retire} finds its END below the horizon. *)
let settle w p (e : Txn_table.entry) ~end_lsn =
  (match w.cfg.policy with
  | Force -> Txn_table.remove p.table e.id
  | No_force ->
      e.status <- Txn_table.Finished;
      e.end_lsn <- end_lsn);
  Pmcheck.txn_settled w.arena ~txn:e.id

(* -- transaction begin -------------------------------------------------- *)

(* Transaction ids encode their home partition: partition [p] hands out
   ids [first_txn + seq * n + p], so [home_partition] recomputes the home
   from the id alone and recovery needs no durable pinning map even for
   caller-pinned transactions.  With no caller pinning the round-robin
   cursor makes the ids come out exactly sequential (the pre-[?home]
   behaviour), as they do under InCLL's one partition. *)
let begin_txn ?home:home_opt t =
  let { next_seq; next_home } = t.ids in
  let n = Array.length next_seq in
  let hp =
    match home_opt with
    | Some h ->
        if h < 0 || h >= n then
          misuse (Home_out_of_range { home = h; partitions = n });
        h
    | None -> Sim_atomic.fetch_and_add next_home 1 mod n
  in
  let id = first_txn + (Sim_atomic.fetch_and_add next_seq.(hp) 1 * n) + hp in
  (match t.protocol with
  | Incll { incll; _ } -> Incll.begin_txn incll id
  | Wal w ->
      let p = home w id in
      let add () = ignore (Txn_table.find_or_add p.table id) in
      (* one layer's entry is volatile alone; two layers mirror the table
         in the AAVLT, and take the latch *)
      if w.cfg.layers = Two_layer then Sim_mutex.with_lock p.latch add
      else add ());
  id

(* -- logging ------------------------------------------------------------ *)

(* Records are formed "off-line" (Section 3.2) — outside the log latch —
   and only the atomic insertion is serialised, which is the fine-grained
   concurrency Section 4.7 claims.  A one-layer word-sized update is an
   inline pair: no allocation, no separate record line.  With a
   partitioned log the latch taken here is the transaction's
   home-partition latch — appends in different partitions never
   serialise against each other.  [store] runs in the same latch
   section, right after the append. *)
let log_update w p (e : Txn_table.entry) ~addr ~old_value ~new_value
    ~store =
  let lsn = fresh_lsn w e in
  let put =
    form w p e ~lsn ~typ:Record.Update ~addr ~old_value ~new_value
      ~undo_next:0
  in
  Sim_mutex.with_lock p.latch (fun () ->
      put ~is_end:false;
      (* WAL declaration: [addr] now has an undo record.  Under Batch the
         record may still sit in an unpersisted group ([Log.pending] > 0),
         in which case the covered store must not reach NVM before the
         {!Pmcheck.group_persisted} of this partition. *)
      Pmcheck.region_logged ~group:p.pid w.arena ~txn:e.id ~addr ~len:8
        ~durable:(Log.pending p.log = 0);
      store p)

(* The paper's expanded-code pattern (Listing 2): log, then store. *)
let write t txn_id ~addr ~value =
  match t.protocol with
  | Incll { incll; _ } ->
      incll_op (fun () -> Incll.write incll txn_id ~addr ~value)
  | Wal w -> (
      let p, e = open_entry w txn_id in
      let old_value = Arena.read w.arena addr in
      match (w.cfg.policy, w.cfg.variant) with
      | No_force, (Log.Simple | Log.Optimized) ->
          log_update w p e ~addr ~old_value ~new_value:value ~store:ignore;
          (* Thread-safe access to user data is the programmer's concern
             (Section 4.7); the cached store itself needs no TM latch. *)
          Arena.write w.arena addr value
      | Force, _ | No_force, Log.Batch _ ->
          (* The Batch deferral list is partition state: the store runs in
             the append's home-latch section. *)
          log_update w p e ~addr ~old_value ~new_value:value
            ~store:(fun p -> user_write w p addr value))

(* Record an intention to free NVM; the de-allocation itself happens only
   once the transaction's outcome is settled (Section 4.3). *)
let log_delete t txn_id ~addr ~size =
  let w = wal t "Tm.log_delete" in
  let p, e = open_entry w txn_id in
  let lsn = fresh_lsn w e in
  let put =
    form w p e ~lsn ~typ:Record.Delete ~addr ~old_value:(Int64.of_int size)
      ~new_value:0L ~undo_next:0
  in
  Sim_mutex.with_lock p.latch (fun () ->
      put ~is_end:false;
      e.deletes <- (lsn, addr, size) :: e.deletes)

(* -- clearing ------------------------------------------------------------ *)

let free_deletes w (e : Txn_table.entry) =
  List.iter (fun (_, addr, size) -> Alloc.free w.alloc addr size) e.deletes

(* One layer: [f h r lsn] over the records of [e]'s transaction in [p]'s
   log, newest first, while [f] returns [true], ending at its first
   record — the one whose LSN is [e]'s first LSN — so nothing older is
   read.  Sound because a transaction's records all sit in its home
   partition in program order, and neither a checkpoint nor compaction
   removes or reorders an unsettled transaction's.  The stop is that
   equality, not [lsn < first_lsn]: LSNs are taken outside the latch, so
   another transaction's lower LSN can land after the first record.  A
   transaction that has logged nothing has no record to walk to. *)
let iter_own w p (e : Txn_table.entry) f =
  if e.first_lsn > 0 then
    Log.iter_back_handles p.log (fun h r ->
        record_txn w r <> e.id
        ||
        let lsn = Record.lsn w.arena r in
        f h r lsn && lsn <> e.first_lsn)

(* Force-policy clearing of one settled transaction, END record last.
   One layer: collect its records back to the first, then tombstone them
   in log order with the END apart, each group followed by the bucket
   freeing a whole-log pass would do.  Two layers: walk its back-chain
   and delete each record's tree node, oldest first — the END record is
   the newest. *)
let clear_txn w p (e : Txn_table.entry) =
  match p.index with
  | None ->
      let others = ref [] and ends = ref [] in
      iter_own w p e (fun h r _ ->
          let group = if record_typ w r = Record.End then ends else others in
          group := h :: !group;
          true);
      Log.remove_handles p.log !others;
      Log.remove_handles p.log !ends
  | Some idx ->
      let oldest_first = ref [] in
      iter_chain w e.last_record (fun r ->
          oldest_first := r :: !oldest_first;
          true);
      List.iter
        (fun r ->
          ignore (Avl_index.remove idx (Record.lsn w.arena r));
          Record.free w.alloc r)
        !oldest_first

(* -- commit --------------------------------------------------------------- *)

(* [clear] exists for experiments that model a crash landing between the
   END record and commit-time clearing (Sections 5.1's recovery scenarios);
   production callers leave it true. *)
let commit ?(clear = true) t txn_id =
  hot_span t "commit" @@ fun () ->
  match t.protocol with
  | Incll { incll; _ } ->
      (* free: the commit becomes durable with its epoch — a crash loses
         up to one epoch of committed work, never consistency *)
      incll_op (fun () -> Incll.commit incll txn_id);
      t.commits <- t.commits + 1
  | Wal w ->
      let p, e = open_entry w txn_id in
      Sim_mutex.with_lock p.latch (fun () ->
          t.commits <- t.commits + 1;
          (* Force: all of the transaction's stores are already on their
             way to NVM; fence, log END, and clear immediately.  No-force:
             the END record forces the batch group; buffered stores can
             then reach the (volatile) cache. *)
          if w.cfg.policy = Force then begin
            flush_pending w p;
            Arena.fence w.arena
          end;
          let end_lsn = append_end w p e in
          if w.cfg.policy = No_force then drain_deferred w p
          else if clear then begin
            clear_txn w p e;
            free_deletes w e
          end;
          settle w p e ~end_lsn)

(* -- rollback -------------------------------------------------------------- *)

(* Undo the records of [e]'s transaction in [p] newest first, under
   Algorithm 2's bound: all of them, or with [sp] those at or above the
   savepoint, stopping at the first below it.  One layer walks [p]'s log
   backwards from its newest record to the transaction's first
   ({!iter_own}), skipping the other transactions' records in between
   (the "skip records" of Section 5.1), so its cost is the transaction's
   own stretch of the log, whatever lies before it.  Two layers walk its
   back-chain and retrieve records through the AAVLT (Section 4.4): a
   full rollback looks up every record, a partial one each it undoes.
   With [sp], or under one layer, each record's LSN is read up front;
   otherwise only an UPDATE's, when [undo_step] needs it. *)
let undo_back ?sp w p (e : Txn_table.entry) ~durably =
  let bound = ref max_int in
  let find lsn =
    Option.iter (fun idx -> ignore (Avl_index.find idx lsn)) p.index
  in
  let step r lsn =
    match sp with
    | None ->
        if Option.is_some p.index then find (Record.lsn w.arena r);
        undo_step w p e ~durably ~bound ~typ:(record_typ w r) ~lsn r;
        true
    | Some sp ->
        let lsn = Lazy.force lsn in
        lsn >= sp
        && begin
             undo_step w p e ~durably ~bound
               ~before_undo:(fun () -> find lsn)
               ~typ:(record_typ w r) ~lsn:(Lazy.from_val lsn) r;
             true
           end
  in
  match p.index with
  | None -> iter_own w p e (fun _ r lsn -> step r (Lazy.from_val lsn))
  | Some _ ->
      iter_chain w e.last_record (fun r ->
          step r (lazy (Record.lsn w.arena r)))

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
  match t.protocol with
  | Incll { incll; _ } -> incll_op (fun () -> Incll.savepoint incll txn_id)
  | Wal w ->
      ignore (open_entry w txn_id);
      Sim_atomic.get w.next_lsn

let rollback_to t txn_id (sp : savepoint) =
  hot_span t "rollback-to" @@ fun () ->
  match t.protocol with
  | Incll { incll; _ } ->
      incll_op (fun () -> Incll.rollback_to incll txn_id sp)
  | Wal w ->
      let p, e = open_entry w txn_id in
      Sim_mutex.with_lock p.latch (fun () ->
          (* the bound keeps repeated partial rollbacks from re-undoing
             compensated updates *)
          undo_back ~sp w p e ~durably:(w.cfg.policy = Force);
          (* deferred de-allocations requested after the savepoint are
             void *)
          e.deletes <- List.filter (fun (lsn, _, _) -> lsn < sp) e.deletes)

let rollback t txn_id =
  hot_span t "rollback" @@ fun () ->
  match t.protocol with
  | Incll { incll; _ } ->
      incll_op (fun () -> Incll.rollback incll txn_id);
      t.rollbacks <- t.rollbacks + 1
  | Wal w ->
      let p, e = open_entry w txn_id in
      Sim_mutex.with_lock p.latch (fun () ->
          t.rollbacks <- t.rollbacks + 1;
          (* Settle any deferred (Batch) user stores *before* undoing, or
             a stale pending store could overwrite a restored value. *)
          flush_pending w p;
          (* The bound makes the walk idempotent: resolving an in-doubt
             transaction as aborted after a crash mid-rollback must not
             re-undo already-compensated updates. *)
          undo_back w p e ~durably:(w.cfg.policy = Force);
          Log.flush_group p.log;
          let end_lsn = append_end w p e in
          drain_deferred w p;
          e.deletes <- [];
          if w.cfg.policy = Force then clear_txn w p e;
          settle w p e ~end_lsn)

(* -- two-phase commit: the participant side (Distributed REWIND) ----------- *)

(* PREPARE (the participant's yes-vote): make everything the transaction
   did durable — pending batch groups, deferred user stores and, under
   force, the data itself — then durably log a PREPARE record carrying
   the global transaction id in its old-value field.  From here until
   {!resolve_in_doubt} the transaction is *in doubt*: recovery neither
   undoes nor finishes it, because under presumed abort only the
   coordinator's durable decision record can settle it. *)
let prepare t txn_id ~gtid =
  let w = wal t "Tm.prepare" in
  let p, e = open_entry w txn_id in
  hot_span t "prepare" @@ fun () ->
  Sim_mutex.with_lock p.latch (fun () ->
      flush_pending w p;
      Arena.fence w.arena;
      ignore
        (append_control w p e ~typ:Record.Prepare ~is_end:true
           ~old_value:(Int64.of_int gtid) ());
      e.status <- Txn_table.Prepared gtid)

(* Settle an in-doubt transaction once the coordinator's decision is
   known.  Both outcomes reuse the ordinary settle paths; rollback's CLR
   bound makes abort resolution idempotent when a crash lands
   mid-resolution and the decision is re-applied after re-attach. *)
let resolve_in_doubt t txn_id ~commit:do_commit =
  match on_wal t ~incll:None (fun w -> entry w txn_id) with
  | Some { status = Txn_table.Prepared _; _ } ->
      if do_commit then commit t txn_id else rollback t txn_id
  | _ -> misuse (Not_in_doubt txn_id)

(* -- checkpoint (Section 4.6) ---------------------------------------------- *)

(* Run [f] holding every partition latch, acquired in index order
   (deadlock-free: the transaction fast paths only ever hold a single
   latch). *)
let with_all_latches w f =
  Array.fold_right (fun p k () -> Sim_mutex.with_lock p.latch k) w.parts f ()

(* The InCLL epoch checkpoint — the config's replacement for both
   commit-time clearing and the cache-consistent checkpoint.  Requires
   quiescence: an advance with a transaction in flight would turn the
   new epoch boundary into a transaction-inconsistent recovery target. *)
let advance_epoch t =
  match t.protocol with
  | Wal _ -> misuse (Incll_only "Tm.advance_epoch")
  | Incll { incll; _ } ->
      Incll.advance_quiescent ~span:(hot_span t "epoch-advance") incll

let current_epoch t =
  match t.protocol with
  | Wal _ -> None
  | Incll { incll; _ } -> Some (Incll.epoch incll)

(* Allocate transactionally-managed storage for one word.  WAL configs
   hand out a bare word; InCLL hands out a full cell line (data + in-line
   undo + epoch tag) through the durable directory.  Workloads that want
   to run unchanged across every configuration allocate through this. *)
let alloc_cell t =
  match t.protocol with
  | Wal w -> Alloc.alloc w.alloc 8
  | Incll { incll; _ } -> Incll.alloc_cell incll

(* A settled no-force transaction retires once its END record lies below
   the horizon [h], so no record of it survives for redo to replay: its
   table entry goes, and its deferred de-allocations run, in END order. *)
let retire w p h =
  Txn_table.fold p.table
    (fun e acc ->
      if e.status = Txn_table.Finished && e.end_lsn < h then e :: acc
      else acc)
    []
  |> List.sort (fun a b -> compare a.Txn_table.end_lsn b.Txn_table.end_lsn)
  |> List.iter (fun (e : Txn_table.entry) ->
         Txn_table.remove p.table e.id;
         free_deletes w e)

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
  match t.protocol with
  | Incll { incll; _ } ->
      (* best effort: under load the advance waits for a quiescent
         checkpoint — deferring durability is safe, splitting a
         transaction across epochs is not *)
      Incll.advance_if_quiescent ~span:(hot_span t "epoch-advance") incll
  | Wal w ->
  hot_span t "checkpoint" @@ fun () ->
  (* Section 4.6: the horizon, stored once the pending groups and the
     cache are durable, takes the place of the CHECKPOINT record. *)
  let h =
    with_all_latches w (fun () ->
        hot_span t "cp-persist" (fun () ->
            persist_all w;
            let h = horizon w in
            set_horizon w h;
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
                clear_below w p h ~intact:(fun _ -> true);
                retire w p h);
            dead))
      w.parts
  in
  (* Compact any partition that clearing left mostly gaps
     (long-running transactions spanning otherwise-empty buckets). *)
  Array.iter
    (fun p ->
      Sim_mutex.with_lock p.latch (fun () ->
          hot_span t "cp-compact" (fun () ->
              Log.compact ~threshold:0.25 p.log)))
    w.parts;
  hot_span t "cp-reclaim" (fun () ->
      Array.iteri (fun i p -> Log.reclaim p.log dead.(i)) w.parts)

(* -- restart (Section 4.5) ------------------------------------------------ *)

(* Reattach after a crash: check the stored fingerprint, then recover.  A
   WAL manager reattaches its logs and runs {!Recovery.attach}; InCLL
   reopens its cell directory and rewinds in one epoch scan, with no
   analysis, redo or undo — the in-line tags are its whole transaction
   table.  Every phase is profiled; see {!last_recovery_profile}. *)
let attach ?(cfg = default_config) alloc ~root_slot =
  check_cfg cfg ~root_slot;
  let arena = Alloc.arena alloc in
  let prof = Probe.create () in
  let span name f = Probe.span prof (Arena.stats arena) name f in
  (* its own phase, so that the phases add up to the attach *)
  span "config-check" (fun () -> validate_stored_config arena cfg ~root_slot);
  let ids = make_ids cfg.partitions in
  let protocol, report =
    if cfg.incll then begin
      let incll =
        span "dir-attach" (fun () ->
            Incll.attach alloc ~root_slot:(root_slot + 1))
      in
      Pmcheck.recovery_begin arena;
      let scanned, rewound =
        span "epoch-scan" (fun () -> Incll.recover incll)
      in
      Pmcheck.recovery_end arena;
      ( Incll { incll; cfg },
        {
          records_scanned = 0;
          torn_truncated = 0;
          redo_applied = 0;
          txns_finished = 0;
          txns_undone = 0;
          cells_scanned = scanned;
          cells_rewound = rewound;
        } )
    end
    else
      let w, report = Recovery.attach prof cfg alloc ~root_slot ~ids in
      (Wal w, report)
  in
  make ~recovery:(report, prof) arena ids protocol

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
