(* WAL restart (Section 4.5): reattach each partition's log and index,
   then analysis, redo (no-force), undo and clearing.

   Recovery merges, reading the log once.  The per-partition work runs
   on one recovery fiber per partition ({!Sim_threads.fork_join}): each
   partition's structural attach, then its analysis decode.  The fibers
   join before one sort by LSN turns the partition streams into one
   stream in global LSN order, from which analysis rebuilds each
   home partition's transaction table; redo replays that stream and undo
   walks it backwards (two-layer: each loser's back-chain within its home
   partition) touching only losers' records.  Those two stay serial:
   their correctness depends on the global LSN order.  Clearing forks
   again: the write-back of the recovered state is split by cache line
   across the fibers, each fencing once, and each partition then clears
   its own index and log on its own fiber.

   Every phase is charged to the recovery's own profile: the arena's
   {!Stats} totals are cumulative across attach cycles, so per-phase
   deltas are the only way to report one recovery's NVM work without
   double-counting. *)

open Rewind_nvm
open Tm_state

(* [f pid] for every partition [pid < parts], each on its own recovery
   fiber ({!Sim_threads.fork_join}: every fiber starts at the same
   simulated instant and the caller's clock resumes at the slowest), as
   its share of phase [name].  With one partition the phase totals are
   the whole story; with several, each partition's share appears as
   "name/pN", accumulated over every fork-join of the phase.  The
   enclosing phase is charged once, so the top-level phases still add up
   to the attach's simulated time.  Each fiber reads and repairs only its
   own partition's log, index and records (the allocator, the one shared
   structure, synchronises on its own lock), or writes back its own share
   of the cache lines, so the work really is independent. *)
let fork_parts prof stats ~parts name f =
  Sim_threads.fork_join parts (fun pid ->
      if parts > 1 then
        Probe.span prof stats (Printf.sprintf "%s/p%d" name pid) (fun () ->
            f pid)
      else f pid)

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

(* One partition's live records, decoded.  One-layer: the log in append
   order, which is *almost* LSN order — LSNs are fetched from the global
   counter outside the latch, so two concurrent appends into the same
   partition can land inverted; the sort at the join puts them right.
   Two-layer: the AAVLT's in-order traversal; a record failing
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
  !acc

(* Every partition's records, each decoded on its own recovery fiber,
   sorted into global LSN order at the join (LSNs are unique across the
   partitions): the stream analysis builds and redo and undo replay. *)
let decoded_log t prof ~payload ~horizon ~on_torn =
  fork_parts prof (Arena.stats t.arena) ~parts:(Array.length t.parts)
    "analysis" (fun pid ->
      part_stream t ~payload ~horizon ~on_torn t.parts.(pid))
  |> Array.to_list |> List.concat
  |> List.stable_sort (fun a b -> compare a.lsn b.lsn)

let durable_horizon t = Int64.to_int (Arena.root_get t.arena t.horizon_slot)

let merged_log_records t =
  List.map
    (fun e -> e.r)
    (decoded_log t (Probe.create ()) ~payload:false
       ~horizon:(durable_horizon t) ~on_torn:ignore)

(* Advance the id counters past every transaction recovery saw, so fresh
   ids can never collide with recovered ones: partition [p]'s next
   sequence number is the smallest [s] with [first_txn + s*n + p >
   max_txn].  The round-robin cursor continues from the id after
   [max_txn], keeping default (unpinned) ids sequential across a crash. *)
let reseed_txn_counters t ids max_txn =
  let n = Array.length t.parts in
  Array.iteri
    (fun p seq ->
      let d = max_txn - first_txn - p in
      let s = if d < 0 then 0 else (d / n) + 1 in
      if s > Sim_atomic.get seq then Sim_atomic.set seq s)
    ids.next_seq;
  let rr = max_txn + 1 - first_txn in
  if rr > Sim_atomic.get ids.next_home then Sim_atomic.set ids.next_home rr

(* Analysis: decode every partition once into the merged stream and
   rebuild each transaction's entry in its home partition's table (a
   transaction's records all live in its home partition) with its first
   LSN, last record and status.  The LSN and transaction-id high-water
   marks are global maxima over every partition, and LSNs continue from
   the horizon even when no record lies above it.  A transaction that
   logged PREPARE stays in doubt, with the global id the record carries,
   unless a later END or ROLLBACK settled it.  Returns the stream and the
   number of transactions found finished. *)
let analysis t prof ~ids ~on_torn =
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
        let te = Txn_table.find_or_add (home t e.txn).table e.txn in
        if te.first_lsn = 0 then te.first_lsn <- e.lsn;
        te.last_record <- e.r;
        match e.typ with
        | Record.End -> te.status <- Txn_table.Finished
        | Record.Rollback -> te.status <- Txn_table.Aborted
        | Record.Prepare ->
            te.status <-
              Txn_table.Prepared (Int64.to_int (Record.old_value t.arena e.r))
        | Record.Update | Record.Clr | Record.Delete -> ()
      end)
    stream;
  Sim_atomic.set t.next_lsn (max (!max_lsn + 1) horizon);
  reseed_txn_counters t ids !max_txn;
  ( stream,
    fold_entries t
      (fun e n -> if e.status = Txn_table.Finished then n + 1 else n)
      0 )

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
   stream (descending global LSN) undoing every unfinished transaction
   with its own CLR bound, so that already-undone updates are skipped.
   Only losers' records are read from NVM again.  Each CLR lands in its
   transaction's home partition.  Returns the number of losers. *)
let undo_one_layer t stream =
  let durably = t.cfg.policy = Force in
  let bounds = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.txn <> 0 then
        let p = home t e.txn in
        match Txn_table.find p.table e.txn with
        | Some
            ({ status = Txn_table.Running | Txn_table.Aborted; _ } as te) ->
            let bound =
              match Hashtbl.find_opt bounds e.txn with
              | Some b -> b
              | None ->
                  let b = ref max_int in
                  Hashtbl.replace bounds e.txn b;
                  b
            in
            undo_step t p te ~durably ~bound ~typ:e.typ
              ~lsn:(Lazy.from_val e.lsn) e.r;
            if durably && e.typ = Record.Clr then
              (* redo the CLR: covers a crash between the CLR and its user
                 store *)
              Arena.nt_write t.arena (Record.addr t.arena e.r)
                (Record.new_value t.arena e.r)
        | Some _ | None ->
            (* finished, or in doubt: a prepared transaction voted yes and
               may only be settled by [resolve_in_doubt] once the
               coordinator's decision is known — leave its records
               untouched *)
            ())
    (List.rev stream);
  (* END records for every transaction just settled, appended to each
     loser's home partition, after a ROLLBACK record for each that was
     still running at the crash; in-doubt transactions are not losers *)
  let losers = ref 0 in
  Array.iter
    (fun p ->
      Txn_table.iter p.table (fun e ->
          match e.status with
          | Txn_table.Running | Txn_table.Aborted ->
              incr losers;
              if e.status = Txn_table.Running then
                ignore
                  (append_control t p e ~typ:Record.Rollback ~is_end:false ());
              ignore (append_end t p e);
              e.status <- Txn_table.Finished
          | Txn_table.Prepared _ | Txn_table.Finished -> ()))
    t.parts;
  !losers

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
            Txn_table.fold p.table
              (fun e acc ->
                match e.status with
                | Txn_table.Running | Aborted -> e :: acc
                | Prepared _ | Finished -> acc)
              []
          in
          total := !total + List.length losers;
          List.iter
            (fun (e : Txn_table.entry) ->
              let head = e.last_record in
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
                  undo_step t p e ~durably ~bound
                    ~before_undo:(fun () ->
                      ignore (Avl_index.find idx (Record.lsn t.arena r)))
                    ~typ:(record_typ t r)
                    ~lsn:(lazy (Record.lsn t.arena r))
                    r;
                  true);
              ignore (append_end t p e);
              e.status <- Txn_table.Finished)
            losers)
    t.parts;
  !total

(* [f] on each partition, on its own recovery fiber, as its share of
   the clearing. *)
let each_part t prof f =
  ignore
    (fork_parts prof (Arena.stats t.arena) ~parts:(Array.length t.parts)
       "clearing" (fun pid -> f t.parts.(pid)))

(* {!Tm_state.persist_all} with the write-back split across the recovery
   fibers.  Every partition's pending group and deferred stores go first,
   serially: a share that wrote back a line still pinned behind another
   partition's open group would break write-ahead order.  Then fiber [k]
   of [n] writes back the dirty lines whose index is [k] mod [n] and
   fences once; it never yields in between, as the arena's "written back
   since the last fence" flag is shared by every fiber.  One partition is
   {!Tm_state.persist_all}, event for event. *)
let persist_shares t prof =
  Array.iter (flush_pending t) t.parts;
  let n = Array.length t.parts in
  each_part t prof (fun p ->
      Arena.flush_all ~share:(p.pid, n) t.arena;
      Arena.fence_if_needed t.arena)

(* Two-layer index clearing, ahead of the log clearing: wholesale, one
   atomic root swing, when nothing is in doubt; otherwise everything
   below the horizon [h], so that in-doubt chains survive until
   [resolve_in_doubt].  Torn records leak, like every volatile free list
   across a crash. *)
let clear_index t ~wholesale h p =
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
      List.iter (fun r -> Record.free t.alloc r) !records

(* [p]'s log clearing, and every table entry but the in-doubt ones
   dropped: their resolution needs their first LSN, their status and
   (two-layer) their back-chain. *)
let clear_part ~wholesale h t p =
  (match p.index with
  | None when not wholesale -> clear_below t p h ~intact:(fun _ -> true)
  | _ -> Log.clear_all p.log);
  Txn_table.fold p.table
    (fun e drop ->
      match e.status with Txn_table.Prepared _ -> drop | _ -> e.id :: drop)
    []
  |> List.iter (Txn_table.remove p.table);
  p.deferred <- []

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
     internal records and always go wholesale.  Each partition clears
     its own index and log on its own fiber; every write-back joins
     before the horizon store or the log clearing that relies on it. *)
  let wholesale = in_doubt t = [] in
  persist_shares t prof;
  let h = horizon t in
  set_horizon t h;
  if t.cfg.layers = Two_layer then begin
    each_part t prof (clear_index t ~wholesale h);
    persist_shares t prof
  end;
  each_part t prof (clear_part ~wholesale h t);
  (* Rebuild the in-doubt transactions' deferred de-allocation intentions
     from their surviving DELETE records: a commit decision frees them, an
     abort drops them. *)
  List.iter
    (fun e ->
      if e.typ = Record.Delete then
        match Txn_table.find (home t e.txn).table e.txn with
        | Some ({ status = Txn_table.Prepared _; _ } as te) ->
            te.deletes <-
              ( e.lsn,
                Record.addr t.arena e.r,
                Int64.to_int (Record.old_value t.arena e.r) )
              :: te.deletes
        | _ -> ())
    stream

let torn_truncated_logs t =
  Array.fold_left (fun acc p -> acc + Log.torn_truncated p.log) 0 t.parts

(* WAL recovery: analysis, redo (no-force), undo, clearing.  Returns
   the report: the records scanned, the torn records dropped, the records
   redone, the transactions found finished and the losers undone. *)
let recover_wal prof pstats ~ids t =
  (* two-layer only: AAVLT-indexed records failing their checksum *)
  let torn = ref 0 in
  let on_torn () =
    incr torn;
    pstats.Stats.torn_records <- pstats.Stats.torn_records + 1
  in
  let stream, finished =
    Probe.span prof pstats "analysis" (fun () ->
        analysis t prof ~ids ~on_torn)
  in
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
  (* the logs (2L: the AAVLTs' internal logs) truncate torn records at
     attach *)
  let torn = !torn + torn_truncated_logs t in
  Probe.span prof pstats "clearing" (fun () ->
      clear_after_recovery t prof stream);
  {
    records_scanned = List.length stream;
    torn_truncated = torn;
    redo_applied = redo;
    txns_finished = finished;
    txns_undone = undone;
    cells_scanned = 0;
    cells_rewound = 0;
  }

(* Reattach the WAL manager's structure — each partition's log, then (two
   layers) its AAVLT, on one recovery fiber per partition, joined phase
   by phase — and recover it inside the persistency checker's recovery
   bracket. *)
let attach prof (cfg : config) alloc ~root_slot ~ids =
  let arena = Alloc.arena alloc in
  let pstats = Arena.stats arena in
  let parts = cfg.partitions in
  let phase name f =
    Probe.span prof pstats name (fun () -> fork_parts prof pstats ~parts name f)
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
  let t =
    make_t cfg alloc ~root_slot
      (Array.init parts (fun pid -> make_part pid logs.(pid) indexes.(pid)))
  in
  Pmcheck.recovery_begin arena;
  let report = recover_wal prof pstats ~ids t in
  Pmcheck.recovery_end arena;
  (t, report)
