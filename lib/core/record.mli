(** Log records: one 64-byte cacheline each, created "off-line" (cached
    stores plus a single write-back) before being atomically linked into
    the log.  Fields follow ARIES/REWIND: LSN, transaction id, type,
    affected address, before/after images, the CLR undo-next pointer, and
    the same-transaction back-chain used by two-layer logging. *)

type typ =
  | Update      (** a logged user (or AAVLT-internal) store *)
  | Clr         (** compensation record written by undo *)
  | End         (** transaction finished (committed or rolled back) *)
  | Delete      (** deferred de-allocation intention (Section 4.3) *)
  | Rollback    (** rollback started (Algorithm 2) *)
  | Prepare     (** 2PC vote: transaction is in doubt until resolved *)

val pp_typ : typ Fmt.t

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

val pp : Rewind_nvm.Arena.t -> int Fmt.t

(** {1 Inline compact records}

    A small record — word-sized before/after images — can be encoded into
    a tagged pair of adjacent bucket slots instead of a 64-byte line: tag
    6 (low three bits) marks the pair's first word, tag 7 the second, and
    a folded 16-bit CRC covers both.  The pair is addressed by an {e
    inline ref} (the first slot's NVM address with the low bit set, odd
    and therefore disjoint from 64-aligned record addresses); every field
    accessor above transparently decodes inline refs, so recovery and
    rollback code is format-agnostic.  See [record.ml] for the exact bit
    layout and eligibility rules. *)

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
    format (the caller then falls back to {!make}).  A CLR's old value is
    write-only system-wide and is not stored: it decodes as 0. *)

val is_inline : int -> bool
(** Is this record address an inline ref? *)

val inline_ref : int -> int
(** The inline ref addressing the pair whose first word sits at the given
    (8-aligned) slot address. *)

val inline_pair : int -> int
(** Inverse of {!inline_ref}: the pair's first-slot address. *)

(** Slot-word classification, used by the log's pair-aware scans. *)

val is_inline_first_word : int -> bool
val is_inline_second_word : int -> bool
val is_inline_word : int -> bool

val inline_pair_valid : w0:int -> w1:int -> bool
(** Tags present and the stored CRC-16 matches — the integrity gate
    recovery applies before trusting a pair; a failure is a torn write. *)
