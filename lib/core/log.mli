(** The recoverable log (Section 3) in its three implementations.

    - [Simple]: records are elements of the {!Adll} directly — every
      append is a full atomic list insertion.
    - [Optimized]: the hybrid layout of Section 3.3 — fixed-size buckets
      of record-pointer slots chained through the ADLL; one non-temporal
      slot store (plus one fence) per record.
    - [Batch g]: Optimized with batched persistence — slot stores stay
      cached until [g] records accumulate (or an END record arrives, or
      the bucket fills), then one write-back + fence + a non-temporal
      update of the bucket's last-persistent-index word covers the whole
      group.  A record counts one whatever its width (a two-slot pair
      too); the write-back covers all of the group's slots.  Recovery
      trusts only slots up to that index, so a new bucket reuses a freed
      one when the allocator has one, its index durably reset to 0
      before it is linked ({!Rewind_nvm.Stats.t.buckets_recycled} counts
      them).  Optimized buckets always come fresh and durably zero.

    Bucket occupancy and the insertion cursor are volatile and
    reconstructed by {!attach} after a crash, as in the paper's analysis
    phase.  So is each bucket's maximum LSN, which {!unlink_below} reads:
    it is noted at append from the caller's LSN, and a bucket rebuilt by
    {!attach} or {!compact}, or given an append without an LSN, counts as
    unknown.

    A bucket slot holds a full record's address or a compact record: a
    one-slot END word or a two-slot inline pair (see {!Record}).  Every
    forward bucket scan — {!iter}, {!remove_where}, {!compact},
    {!occupancy_stats}, {!check_occupancy}, {!reclaim}, {!clear_all} and
    {!attach} — reads the slots through one walk, so all of them classify
    a slot alike. *)

type variant = Simple | Optimized | Batch of int

val pp_variant : variant Fmt.t

type t

val create :
  variant -> ?bucket_cap:int -> Rewind_nvm.Alloc.t -> root_slot:int -> t
(** Create an empty log anchored at the arena's [root_slot]. *)

val attach :
  variant -> ?bucket_cap:int -> Rewind_nvm.Alloc.t -> root_slot:int -> t
(** Reattach after a crash: recovers the underlying ADLL, then rebuilds
    the cursor and occupancy from the durable image.  Batch-variant slots
    beyond a bucket's last persistent index are not trusted.  Reachable
    records are checksum-verified; one that fails is treated as a torn
    write and truncated out of the log (see {!torn_truncated}) instead of
    being replayed. *)

val torn_truncated : t -> int
(** Bad-checksum records truncated by the last {!attach} (0 for a log
    created with {!create}). *)

val variant : t -> variant
val arena : t -> Rewind_nvm.Arena.t

val set_group_tag : t -> int -> unit
(** Stamp this log's sanitizer annotations with a partition id: each
    partition of a partitioned log flushes its batch groups
    independently, so its [Group_persisted] events must name the
    partition whose pending coverage upgrades.  Defaults to 0. *)

(** {1 Appending}

    An append is two steps.  {!form} decides the record's form, outside
    any latch; {!put} stores it, under the caller's latch.  The form is
    decided here alone: bucketed variants encode a payload-free END into
    one tagged slot word ({!Record.word_encode}) and a small UPDATE or
    CLR into a tagged pair of adjacent slots ({!Record.inline_encode});
    every other record is a full off-line record.  An Optimized compact
    append costs one line write-back plus one fence instead of a record
    write-back, a fence and an ordered slot store; Batch appends stay
    entirely cached until the group flush.  Readers receive inline refs
    that the {!Record} accessors decode transparently. *)

type record
(** A record in the form the log stores it. *)

val form :
  t ->
  lsn:int ->
  txn:int ->
  typ:Record.typ ->
  addr:int ->
  old_value:int64 ->
  new_value:int64 ->
  undo_next:int ->
  record
(** When the inline fast path is on and the variant and bucket size
    allow it: an END word if the record is a payload-free END whose
    fields fit it, else an inline pair if the fields fit the pair.
    Otherwise a full record, made and written back with {!Record.make}.
    [lsn] is noted as the bucket's maximum at {!put}, except for the
    AAVLT's internal records ([txn = 0]), which carry none. *)

val full : ?lsn:int -> int -> record
(** A full record the caller made with {!Record.make} itself, with [lsn]
    its LSN as the caller already knows it (the log does not read it
    back); without it the bucket's maximum LSN becomes unknown. *)

(** Handle to an appended record's location, for O(1) removal by the
    owner (the AAVLT clears its own records this way). *)
type handle = Node of int | Slot of { node : int; bucket : int; slot : int }

val put : ?is_end:bool -> t -> record -> handle
(** Store a formed record.  [is_end] marks END records, which force the
    pending batch group to persist immediately (Section 3.3). *)

val append_record :
  ?is_end:bool ->
  t ->
  lsn:int ->
  txn:int ->
  typ:Record.typ ->
  addr:int ->
  old_value:int64 ->
  new_value:int64 ->
  undo_next:int ->
  handle
(** {!form} then {!put}, for appenders that hold no latch across the two
    steps or form their record under it. *)

val remove_handle : t -> handle -> unit

val set_inline : t -> bool -> unit
(** Enable/disable the inline fast path — END words and pairs alike
    (benchmarks use this to measure the full-record path on the same
    variant). *)

val inline_appended : t -> int
(** Appends that took the inline path (see also
    {!Rewind_nvm.Stats.t.inline_records}). *)

val flush_group : t -> unit
(** Persist any pending batch slots now (one write-back + fence + index
    update).  No-op for Simple/Optimized. *)

val pending : t -> int
(** Slots appended but not yet persisted (Batch only; 0 otherwise). *)

val appended : t -> int

(** {1 Scanning}

    Iteration visits live records in append order; tombstoned and
    untrusted slots are skipped.  Appending while iterating is safe — new
    records are not visited. *)

val iter : t -> (int -> unit) -> unit

val iter_back_handles : t -> (handle -> int -> bool) -> unit
(** The backward scan: [f h r] for each record [r], newest first, with
    [h] its handle, until [f] returns [false].  Rolling back or clearing
    one transaction stops it at that transaction's first record. *)

val iter_back : t -> (int -> unit) -> unit
(** {!iter_back_handles} over every record. *)

val length : t -> int
val records : t -> int list

(** {1 Clearing} *)

val remove_where : t -> (int -> bool) -> unit
(** Tombstone (and free) every record satisfying the predicate; unlink
    buckets that become empty.  Each tombstone is a single atomic word
    store, so a crash mid-clearing leaves a well-formed log holding some
    subset of the removals.  Callers therefore remove only records that
    recovery ignores whichever subset survives: {!Tm} clears below its
    durable LSN horizon. *)

val remove_end_last : t -> (int -> bool) -> unit
(** {!remove_where} in two passes: the matching records other than END
    records, then the matching END records, so that a clearing a crash
    interrupts is re-attempted identically (Section 4.6).  Clears the
    AAVLT's internal records after a crash. *)

val remove_handles : t -> handle list -> unit
(** One {!remove_where} pass restricted to the records at the given
    handles, with the same stores in the same order when the handles come
    in log order: tombstone (and free) each, then free every empty bucket
    other than the current one, newest first — including one that
    emptied while it was the current one.  Reads no other slot.  A
    one-layer force-policy commit clears its transaction with two calls,
    END last, as {!remove_end_last} would. *)

val unlink_below : t -> int -> int list
(** [unlink_below t h] unlinks every bucket other than the current one
    whose maximum LSN is known and below [h], with one crash-atomic
    {!Adll.remove} each, and returns them in chain order, oldest first,
    still allocated.  No slot is read or tombstoned.  The caller must have
    made [h] a durable horizon below which recovery reads nothing.  The
    Simple variant has no buckets and returns [[]]. *)

val reclaim : t -> int list -> unit
(** Free the full records and the memory of buckets returned by
    {!unlink_below}.  They are unreachable, so no latch is needed. *)

val clear_all : t -> unit
(** The paper's three-step wholesale clearing: build a fresh log, swing
    the root atomically, de-allocate the old one. *)

val compact : ?threshold:float -> t -> unit
(** Section 3.3's compaction: if live records make up less than
    [threshold] of the trusted slots (gaps left by clearing around
    long-running transactions), copy the live records into a fresh log
    and atomically swing the root.  Crash-safe: the root moves last. *)

val occupancy_stats : t -> int * int
(** (live slots, trusted slots): a pair fills two slots, an END word or a
    full record's address one. *)

val buckets : t -> int list
(** The buckets by address, in chain order: the current one last.
    Empty for the Simple variant.  Test helper; reads the ADLL. *)

val check_occupancy : t -> (int * int * int) list
(** Cross-check the volatile per-bucket occupancy cells (and the current
    bucket's cell) against a recount from the durable layout.
    Returns [(bucket, cached, actual)] mismatches — empty when the cache
    is coherent.  Test helper; O(log size). *)

val idle_buckets : t -> int list
(** The buckets other than the current one that hold no live record,
    recounted from the durable layout, in chain order.  A
    {!remove_where} or {!remove_handles} pass frees them all.  Test
    helper; O(log size). *)

(** {1 Chaos (tests only)} *)

val set_chaos_drop_group_fence : t -> bool -> unit
(** When set, {!flush_group} skips its persistence fence: the batch
    slots are written back but unordered with respect to the
    last-persistent-index store.  Deliberately violates Section 3.3 so
    the persistency sanitizer's detection can be unit-tested. *)
