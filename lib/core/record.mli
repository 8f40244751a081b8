(** Log records.  A full record is one 64-byte cacheline, created
    "off-line" (cached stores plus a single write-back) before being
    atomically linked into the log; the bucketed logs also store small
    records in their own slots (see {!section:compact}).  Fields follow
    ARIES/REWIND: LSN, transaction id, type, affected address,
    before/after images, the CLR undo-next pointer, and the
    same-transaction back-chain used by two-layer logging. *)

type typ =
  | Update      (** a logged user (or AAVLT-internal) store *)
  | Clr         (** compensation record written by undo *)
  | End         (** transaction finished (committed or rolled back) *)
  | Delete      (** deferred de-allocation intention (Section 4.3) *)
  | Rollback    (** rollback started (Algorithm 2) *)
  | Prepare     (** 2PC vote: transaction is in doubt until resolved *)

val size_bytes : int
(** 64: records are cacheline-sized and cacheline-aligned. *)

val make :
  Rewind_nvm.Alloc.t ->
  lsn:int ->
  txn:int ->
  typ:typ ->
  addr:int ->
  old_value:int64 ->
  new_value:int64 ->
  undo_next:int ->
  prev_same_txn:int ->
  int
(** Allocate and initialise a record; returns its NVM address.  The fields
    are written back (one NVM line write) but not fenced — the caller
    orders the record before whatever makes it reachable. *)

(** {1 Field accessors} — all take the arena and the record address. *)

val lsn : Rewind_nvm.Arena.t -> int -> int
val txn : Rewind_nvm.Arena.t -> int -> int
val typ : Rewind_nvm.Arena.t -> int -> typ
val addr : Rewind_nvm.Arena.t -> int -> int
val old_value : Rewind_nvm.Arena.t -> int -> int64
val new_value : Rewind_nvm.Arena.t -> int -> int64
val undo_next : Rewind_nvm.Arena.t -> int -> int
val prev_same_txn : Rewind_nvm.Arena.t -> int -> int

val set_prev_same_txn : Rewind_nvm.Arena.t -> int -> int -> unit
(** Durable update of the back-chain; only legal while the record is not
    yet reachable from the log or an index chain.  Rewrites the checksum,
    which covers the chain pointer. *)

(** {1 Integrity}

    Every record carries a CRC-32 of its fields in the upper half of the
    type word.  Recovery verifies it before interpreting a record, so a
    torn write or media corruption is detected and truncated rather than
    replayed. *)

val checksum : Rewind_nvm.Arena.t -> int -> int
(** The stored CRC-32. *)

val verify : Rewind_nvm.Arena.t -> int -> bool
(** Recompute and compare the checksum.  Interprets no field, so it is
    safe to call on a suspect (torn or corrupted) record. *)

val plausible : Rewind_nvm.Arena.t -> int -> bool
(** Could this address a full record: aligned to {!size_bytes} and
    inside the arena?  The test every scan applies to an address read
    from NVM before dereferencing it. *)

val intact : Rewind_nvm.Arena.t -> int -> bool
(** {!plausible}, then {!verify}: the one validity check recovery applies
    to a full record before interpreting it. *)

val free : Rewind_nvm.Alloc.t -> int -> unit
(** Return a full record's line to the allocator; no-op on inline refs
    (their storage is the bucket's own slots). *)

(** {1:compact Inline compact records}

    Two compact forms live in a bucket's own slots instead of a 64-byte
    line.  An {e END word} is one slot, tag 2 (low three bits): a
    payload-free user END with a 17-bit transaction id, a 26-bit LSN and a
    16-bit CRC.  A {e pair} is two adjacent slots under a folded 16-bit
    CRC: a word-sized UPDATE or CLR, whose first word has the END word's
    layout under tag 6, or an AAVLT-internal record, whose first word is
    tagged 5; the second word, tag 7, holds the kind, an address below
    2^28 and two 16-bit fields.  A compact record is addressed by an
    {e inline ref}: its first slot's NVM address with low bits [0b001]
    (pair) or [0b011] (END word), odd and therefore disjoint from
    64-aligned record addresses.  Every field accessor above decodes
    inline refs by their bits alone, so recovery and rollback code is
    format-agnostic; an END word's address, images and chains decode as
    0.  See [record.ml] for the exact bit layouts and eligibility rules. *)

val word_encode :
  lsn:int ->
  txn:int ->
  typ:typ ->
  addr:int ->
  old_value:int64 ->
  new_value:int64 ->
  undo_next:int ->
  int option
(** The END word, or [None] unless the record is an END with no payload
    ([addr], images and [undo_next] all 0), [txn] in [1, 2^17) and [lsn]
    below 2^26. *)

val inline_encode :
  lsn:int ->
  txn:int ->
  typ:typ ->
  addr:int ->
  old_value:int64 ->
  new_value:int64 ->
  undo_next:int ->
  (int * int) option
(** The pair's two slot words, or [None] when a field exceeds the compact
    format or the record is a user END (the caller then tries
    {!word_encode} or falls back to {!make}).  A user record needs [txn]
    below 2^17, [lsn] below 2^26 and 16-bit images; every pair needs an
    8-aligned [addr] below 2^28.  A CLR's old value is write-only
    system-wide and is not stored: it decodes as 0. *)

val is_inline : int -> bool
(** Is this record address an inline ref (pair or END word)? *)

val inline_ref : width:int -> int -> int
(** The inline ref of the compact record whose first word sits at the
    given (8-aligned) slot address: an END word for [width] 1, a pair for
    [width] 2. *)

val inline_slot : int -> int
(** Inverse of {!inline_ref}: the record's first-slot address. *)

(** Slot-word classification, used by the log's scans. *)

val is_inline_first_word : int -> bool
val is_inline_second_word : int -> bool
val is_end_word : int -> bool

val inline_pair_valid : w0:int -> w1:int -> bool
(** Tags present and the stored CRC-16 matches — the integrity gate
    recovery applies before trusting a pair; a failure is a torn write. *)

val end_word_valid : int -> bool
(** Tag present and the stored CRC-16 matches: the END word's gate. *)
