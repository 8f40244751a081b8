(** The transaction recovery manager (Section 4): WAL over physical log
    records, in the paper's four configurations.

    - {!policy}: [Force] writes user data to NVM with non-temporal stores
      and clears the transaction's log records at commit (two-phase
      recovery: analysis + undo); [No_force] caches user data, clears the
      log at checkpoints, and recovers in three phases (analysis + redo +
      undo).
    - {!layers}: [One_layer] keeps user records directly in the bucket/ADLL
      log and no durable per-transaction state (Algorithm 2 reconstructs it
      at recovery); [Two_layer] indexes every record in the {!Avl_index}
      by LSN and threads each transaction's records into a back-chain,
      making selective rollback cheap at a higher logging cost.  Both keep
      a volatile transaction table with an entry for every open
      transaction, at no simulated cost.

    The log implementation ({!Log.variant}) is chosen independently,
    giving the paper's Simple / Optimized / Batch versions.  Under one
    layer the log alone decides each record's form ({!Log.form}: an END
    word, an inline pair or a full record); under two, every user record
    is full, because the AAVLT indexes it by address.

    In-cache-line logging ([config.incll]) is not a WAL configuration: a
    manager is either the WAL manager or InCLL's epoch protocol, held
    beside it.  Every operation with an InCLL meaning runs InCLL's
    transaction layer; the WAL-only operations ({!log}, {!log_delete},
    {!prepare}) raise {!Error} [Wal_only] under it, and the WAL-shaped
    accessors answer as for one partition with an empty log.

    {2 Partitioned logging}

    With [config.partitions = n > 1] the log is sharded into [n]
    independent partitions — each a full recoverable bucketed-ADLL log
    with its own latch, bucket cursor, group-flush state, transaction
    table and (two-layer) AAVLT.  A transaction is pinned to a {e home
    partition} by its id (round-robin), so its entire fast path — record
    append, Batch deferral, commit, rollback — serialises only on that
    partition's latch; appends in different partitions proceed in
    parallel.  LSNs still come from one process-wide atomic counter, so a
    single global order over all records survives, and recovery
    ({!attach}, its only entry point) merges the partitions, reading the
    log once.  Each partition's structural attach and analysis decode run
    on their own recovery fiber ({!Rewind_nvm.Sim_threads.fork_join}),
    joined before one sort by LSN merges them into one stream in global
    LSN order; redo replays that stream, undo walks it backwards (two-layer:
    each loser's back-chain within its home partition) reading only
    losers' records.

    {!checkpoint} and recovery's clearing follow one rule, the durable
    LSN horizon H = min(next LSN, first LSN of every unsettled
    transaction): every record below H, in any partition, is settled and
    durable, analysis skips it, and removing it needs no order.  Only
    force-policy clearing of a single transaction keeps one (END last,
    {!Log.remove_handles}). *)

type policy = Force | No_force
type layers = One_layer | Two_layer

type config = {
  policy : policy;
  layers : layers;
  variant : Log.variant;
  bucket_cap : int;
      (** Records per log bucket, in [[1, 2^24)]; a [Batch] group must lie
          in [[1, 2^16)]. *)
  partitions : int;
      (** Independent log partitions (>= 1).  [1] is the unpartitioned
          log of the paper's single-threaded experiments. *)
  incll : bool;
      (** In-cache-line logging (Cohen et al., ASPLOS'19): replaces the
          WAL machinery wholesale with per-cell in-line undo words and
          epoch-granular group durability.  Updates go through cells
          allocated with {!alloc_cell}; durability points are
          {!advance_epoch} calls (or {!checkpoint}), not commits — a
          crash rolls back to the last epoch boundary.  Requires
          [partitions = 1] and [One_layer]; [variant]/[policy] are
          ignored.  See {!advance_epoch}. *)
}

val default_config : config
(** One-layer, no-force, Optimized log, 1000-record buckets. *)

val pp_config : config Fmt.t

type txn = int
type t

(** {1 Misuse errors}

    Every misuse of the manager raises {!Error} with one constructor per
    class; a registered printer renders the diagnostic text. *)

type error =
  | Invalid_config of string
      (** {!create}/{!attach} given a configuration that cannot be laid
          out (partition count, InCLL shape, bucket capacity, Batch
          group, root-slot budget) *)
  | No_fingerprint of { root_slot : int }
      (** {!attach} on a root slot {!create} never initialised *)
  | Not_a_fingerprint of { root_slot : int; found : int }
      (** {!attach} on a root slot holding something else *)
  | Fingerprint_mismatch of {
      root_slot : int;
      stored : config;
      requested : config;
    }  (** {!attach} with a durable layout other than the stored one *)
  | Wal_only of string  (** a WAL-only operation under InCLL *)
  | Incll_only of string  (** an InCLL-only operation under WAL *)
  | Home_out_of_range of { home : int; partitions : int }
      (** {!begin_txn} [?home] outside [[0, partitions)] *)
  | Not_in_doubt of txn
      (** {!resolve_in_doubt} on a transaction that is not in doubt *)
  | Unregistered_cell of int
      (** an InCLL {!write} to an address {!alloc_cell} did not return *)
  | Txn_not_open of txn
      (** {!write}, {!log_delete}, {!commit}, {!rollback}, {!savepoint},
          {!rollback_to} or {!prepare} on a transaction that is not open:
          never begun, or already committed or rolled back.  Every
          configuration raises it before changing any state. *)

exception Error of error

val error_message : error -> string

val create : ?cfg:config -> Rewind_nvm.Alloc.t -> root_slot:int -> t
(** Fresh transaction manager anchored at [root_slot]: the slot itself
    durably records a configuration fingerprint (validated by {!attach}),
    partition [p]'s log lives at root slot [root_slot + 1 + 2p] and its
    two-layer index at [root_slot + 2 + 2p], and the durable LSN horizon
    at [root_slot + 1 + 2n] for [n] partitions ({!root_slots} in all).
    Raises {!Error} [Invalid_config] if these run past the arena's root
    directory (slots 1-63). *)

val root_slots : config -> int
(** The consecutive root slots a manager occupies from its [root_slot]
    (3 under InCLL, which keeps no horizon): managers sharing an arena
    sit at least this far apart. *)

val attach : ?cfg:config -> Rewind_nvm.Alloc.t -> root_slot:int -> t
(** Reattach after a crash with the same configuration and root slot:
    recovers the log structure, then runs analysis / redo / undo and
    clears the log.  On return every pre-crash transaction is settled,
    except transactions left {e in doubt} by a {!prepare} — those keep
    their records and must be settled via {!resolve_in_doubt}.

    The configuration is checked against the fingerprint {!create} stored
    at [root_slot]: attaching with a different partition count (or any
    other recovery-relevant config field) raises {!Error} with a
    diagnostic instead of silently misassigning home partitions. *)

val config : t -> config

val log : t -> Log.t
(** Partition 0's log (the only one when [partitions = 1]).  Raises
    {!Error} [Wal_only] under an InCLL configuration, which keeps no
    log. *)

val logs : t -> Log.t array
(** All partitions' logs, indexed by partition id.  Empty under InCLL. *)

val partitions : t -> int
(** The log partitions: [config.partitions], and 1 under InCLL. *)

val home_partition : t -> txn -> int
(** The partition a transaction's records land in: a pure function of
    its id ([(id - 1) mod partitions]), so recovery needs no pinning
    map.  Ids are allocated per partition ([id = 1 + seq*partitions +
    home]), which is what lets {!begin_txn}'s caller pick the home while
    keeping this a pure function — with no caller pinning, the
    round-robin assignment makes ids come out exactly sequential.  0
    under InCLL. *)

val merged_log_records : t -> int list
(** The union of every partition's live records merged into global LSN
    order: the refs of the stream recovery's analysis decodes, and redo
    and undo replay.  Introspection for tests (the merged-redo-order
    property).  Empty under InCLL. *)

(** {1 Transactions} *)

val begin_txn : ?home:int -> t -> txn
(** Open a transaction.  [?home] pins it to a log partition (0-based; the
    TPC-C driver pins by home warehouse so a warehouse's entire
    transaction stream serialises only on its own partition's latch) —
    the home is encoded in the returned id, so recovery recomputes it
    from the logged records alone.  Default: round-robin over the
    partitions, yielding sequential ids.  Raises {!Error}
    [Home_out_of_range] if [home] is outside [0, partitions). *)

val write : t -> txn -> addr:int -> value:int64 -> unit
(** The paper's expanded-code pattern (Listing 2): log the update — old
    value, new value, address — then perform the store according to the
    policy.  The log record is formed outside the log latch ("off-line")
    and only its insertion is serialised. *)

val log_delete : t -> txn -> addr:int -> size:int -> unit
(** Record an intention to free NVM.  The de-allocation happens at commit
    (force) or at the clearing checkpoint (no-force); a rollback drops
    it.  (Section 4.3's DELETE records.) *)

val commit : ?clear:bool -> t -> txn -> unit
(** Commit.  Under force policy this persists all pending stores, logs
    END, and clears the transaction's records ([clear:false] suppresses
    the clearing — used by experiments that model a crash between END and
    clearing); one layer finds them with a backward scan from END to the
    transaction's first record.  Under no-force it logs END; clearing
    waits for {!checkpoint}. *)

val rollback : t -> txn -> unit
(** Undo the transaction with CLRs, then log END.  One layer scans the
    home partition's log backwards from its newest record to the
    transaction's first, skipping the other transactions' records in
    between, so the cost does not grow with the log before the
    transaction; two layers follow the record chain via the index. *)

val atomically : ?home:int -> t -> (txn -> 'a) -> 'a
(** The paper's [persistent_atomic] block: begin; commit on success, roll
    back and re-raise on exception.  A simulated {!Rewind_nvm.Arena.Crash}
    is re-raised {e without} rolling back: the crashed process cannot run
    cleanup, and writing CLR/END records into the crash image would make
    recovery mistake the interrupted transaction for a settled one. *)

(** {1 Two-phase commit (Distributed REWIND)}

    The participant side of presumed-abort 2PC.  {!prepare} is the
    yes-vote: it persists everything the transaction did and durably logs
    a PREPARE record carrying the coordinator's global transaction id.
    From then on the transaction is {e in doubt}: recovery neither undoes
    nor finishes it — its records survive log clearing across any number
    of crashes — until {!resolve_in_doubt} applies the coordinator's
    decision (commit if the coordinator durably logged one, abort
    otherwise: presumed abort). *)

val prepare : t -> txn -> gtid:int -> unit
(** Vote yes: persist the transaction's records (and, under force, its
    stores), then durably log PREPARE.  After [prepare] the transaction
    must not be settled unilaterally — only {!resolve_in_doubt} may
    finish it. *)

val in_doubt : t -> (txn * int) list
(** The transactions currently in doubt with their global transaction
    ids: prepared by {!prepare}, or found by recovery from a surviving
    PREPARE record, and not yet resolved.  Sorted by local transaction
    id; empty under InCLL. *)

val resolve_in_doubt : t -> txn -> commit:bool -> unit
(** Settle an in-doubt transaction with the coordinator's decision:
    [commit:true] commits it (its updates are already durable or
    redo-able), [commit:false] rolls it back with CLRs.  Idempotent
    across crashes mid-resolution — re-attach finds the transaction in
    doubt again and the decision can be re-applied.  Raises
    {!Error} [Not_in_doubt] if the transaction is not in doubt (under
    InCLL, always). *)

(** {1 Partial rollback}

    An extension the CLR machinery supports directly (ARIES-style
    savepoints): a savepoint names a point in the transaction; rolling
    back to it undoes the later updates with ordinary CLRs, so a crash at
    any moment still recovers correctly. *)

type savepoint

val savepoint : t -> txn -> savepoint

val rollback_to : t -> txn -> savepoint -> unit
(** Undo the transaction's updates made after the savepoint with CLRs;
    the transaction stays open.  One layer's backward scan stops at the
    first of its records below the savepoint, or at its first record. *)

val checkpoint : t -> unit
(** The "cache-consistent" checkpoint of Section 4.6: persist pending log
    state, flush the cache, durably store the LSN horizon — the first
    LSN of the oldest unsettled transaction, or the next LSN if none is
    open — then remove every record below it and run the deferred
    de-allocations of the transactions whose records are all gone.

    Checkpointing with transactions in flight is fully supported — this
    is the point of Section 4.6's design, and what distinguishes REWIND
    from redo-only baselines (e.g. {!Rewind_baselines.Paged_kv}, whose
    checkpoint must refuse active transactions because it has no undo
    information).  Records at or above the horizon — every live
    transaction's, and settled ones a later checkpoint removes — survive
    untouched.  Recovery ignores every record below it, so the removal
    order is free: a crash at any point during the checkpoint recovers
    to the same state as an uninterrupted checkpoint.

    Every partition latch is held only while the pending state is
    persisted and the horizon stored.  Each partition is then cleaned
    under its own latch alone — buckets wholly below the horizon
    unlinked whole ({!Log.unlink_below}), the remaining records below it
    tombstoned, the log compacted if mostly gaps — and the unlinked
    buckets are freed with no latch held. *)

(** {1 In-cache-line logging (InCLL)}

    With [config.incll = true] the manager keeps no write-ahead log at
    all.  Updates target {e cells} — cache lines holding the data word,
    an in-line undo word and an epoch tag — so a logged update costs one
    NVM line write and no fence.  Durability is {e epoch-granular}:
    {!commit} only settles the transaction's volatile state; the whole
    epoch becomes durable at once at {!advance_epoch}, and a crash rolls
    every cell back to the last epoch boundary (which is
    transaction-consistent, because epochs only advance at quiescence).
    {!rollback} still works mid-epoch via a volatile per-transaction
    undo journal. *)

val alloc_cell : t -> int
(** Allocate one managed word and return its address.  Under InCLL this
    is a durably-registered cache-line cell (the only addresses
    {!write} accepts); under the WAL configurations it is a plain
    8-byte allocation, so workloads can be written config-generically. *)

val advance_epoch : t -> unit
(** The InCLL group-commit point: flush all dirty lines, fence, bump
    the durable epoch counter.  Everything stored since the previous
    advance becomes durable as a group.  Raises {!Error} [Incll_only] if
    the configuration is not InCLL, and [Invalid_argument] if
    transactions are in flight (the epoch boundary must be
    transaction-consistent).
    {!checkpoint} is the best-effort variant: it advances only when no
    transaction is active, and is a no-op otherwise. *)

val current_epoch : t -> int option
(** The current epoch ([None] for WAL configurations). *)

(** {1 Introspection} *)

(** What the last recovery found and did.  [torn_truncated] counts
    bad-checksum log records that recovery dropped as torn writes instead
    of replaying them (see {!Record.verify}).  The record and transaction
    counts are WAL-only and read 0 under InCLL, which has no log and no
    transaction table; its epoch scan reports cells instead, which read 0
    under WAL. *)
type recovery_report = {
  records_scanned : int;  (** log records examined by analysis (WAL) *)
  torn_truncated : int;   (** bad-checksum records dropped as torn writes *)
  redo_applied : int;     (** records re-applied by the redo pass (WAL) *)
  txns_finished : int;    (** transactions found committed/rolled back (WAL) *)
  txns_undone : int;      (** unfinished transactions rolled back by undo (WAL) *)
  cells_scanned : int;    (** registered cells the epoch scan read (InCLL) *)
  cells_rewound : int;    (** cells it rewound to their in-line undo (InCLL) *)
}

val last_recovery : t -> recovery_report option
(** The report of the recovery {!attach} ran; [None] for a manager
    {!create} made. *)

val last_recovery_profile : t -> Rewind_nvm.Probe.t option
(** Per-phase profile of the recovery {!attach} ran: simulated time and
    NVM counter deltas for [config-check], [log-attach], [index-rebuild]
    (two-layer), [analysis], [redo] (no-force), [undo] and [clearing];
    under InCLL for [config-check], [dir-attach] and [epoch-scan].  These
    top-level phases sum exactly to the attach's simulated time.  With
    several partitions, [log-attach], [index-rebuild] and [analysis] run
    one fiber per partition and are charged once, at the join; each
    partition's share appears as a ["phase/pN"] sub-span.  Each recovery
    gets a fresh probe, so the numbers cover exactly one recovery — the
    arena's cumulative {!Rewind_nvm.Stats} totals cannot be compared
    across a crash without double-counting earlier cycles. *)

val set_probe : t -> Rewind_nvm.Probe.t option -> unit
(** Attach a probe to the runtime hot paths: [commit], [rollback],
    [rollback-to], [checkpoint] and the checkpoint sub-phases [cp-persist] (every latch held),
    [cp-unlink] / [cp-clear] / [cp-compact] (one partition's latch held)
    and [cp-reclaim] (no latch held) charge spans to it.  [None] (the
    default) disables hot-path profiling; recovery profiling is always
    on. *)

val latch_wait_ns : t -> int array
(** Per partition latch, the total simulated ns acquirers waited for it
    ({!Rewind_nvm.Sim_mutex.wait_ns}).  Empty under InCLL. *)

val latch_hold_ns : t -> int array
(** Per partition latch, the total simulated ns it was held
    ({!Rewind_nvm.Sim_mutex.hold_ns}).  Empty under InCLL. *)

val commits : t -> int
val rollbacks : t -> int

val active_transactions : t -> int
(** The transactions begun and not yet settled: the open ones and (WAL)
    the ones in doubt.  After {!attach} it counts the in-doubt ones
    alone. *)
