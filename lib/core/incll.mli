(** In-cache-line logging (InCLL): epoch-based undo logging where the
    undo entry shares the data's cache line, after Cohen et al.,
    "Fine-Grain Checkpointing with In-Cache-Line Logging" (ASPLOS'19).

    Each managed cell owns one cache line holding the data word, an undo
    word, and an epoch tag.  The first store to a cell per epoch
    captures the old value into the undo word (two extra cached stores,
    same line — no extra NVM line write, no fence); later stores in the
    epoch are a single cached store.  The epoch advance is the
    group-commit point: flush everything, fence, bump the durable epoch
    counter.  A crash rolls the state back to the last advance — which is
    transaction-consistent, because the transaction layer only advances
    at quiescence.

    This module is InCLL's whole transaction layer, which {!Tm} delegates
    to under [config.incll], bypassing the log/record machinery: it keeps
    each open transaction's volatile undo journal behind one latch, for
    abort and savepoint rollback (crash rollback never reads it). *)

open Rewind_nvm

type t

val create : Alloc.t -> root_slot:int -> t
(** Format a fresh InCLL region: allocate the durable epoch-counter line
    and cell directory head, anchor them in root slots [root_slot] and
    [root_slot + 1], and start at epoch 1. *)

val attach : Alloc.t -> root_slot:int -> t
(** Reopen from those root slots: read the durable epoch and rebuild the
    volatile cell list by walking the durable directory.  Does not roll
    anything back — call {!recover} for that. *)

val alloc_cell : t -> int
(** Allocate and durably register one cell (a full cache line from
    never-recycled, durably-zero space — a fresh tag of 0 can never
    equal a live epoch).  Returns the data-word address; the cell's undo
    word and tag live at fixed offsets behind it. *)

val recover : t -> int * int
(** Post-crash: rewind every cell whose tag equals the crashed epoch to
    its undo word, then advance the epoch.  Idempotent across crashes
    inside recovery itself.  Drops every open transaction.  Returns
    (cells scanned, cells rewound). *)

val epoch : t -> int
(** The current (cached) epoch. *)

(** {1 Transactions}

    Ids are allocated by the caller.  Each function taking one raises
    {!Not_open} if that transaction is not open. *)

exception Not_open of int
exception Unregistered_cell of int

val begin_txn : t -> int -> unit

val write : t -> int -> addr:int -> value:int64 -> unit
(** Journal the cell's current value, then store, capturing the in-line
    undo first if this is the cell's first store of the epoch.  Raises
    {!Unregistered_cell} for an unregistered address {e before}
    journaling it, so an abort still restores every earlier write. *)

val commit : t -> int -> unit
(** Drop the journal.  Nothing is written: the commit becomes durable
    with its whole epoch at the next advance. *)

val rollback : t -> int -> unit
(** Restore every journaled value, newest first, and close. *)

val savepoint : t -> int -> int
(** The current journal depth. *)

val rollback_to : t -> int -> int -> unit
(** Restore the values journaled after the savepoint, newest first. *)

val active : t -> int
(** Open transactions. *)

val advance_quiescent : span:((unit -> unit) -> unit) -> t -> unit
(** The epoch checkpoint, run inside [span]: flush all dirty lines,
    fence, bump the durable epoch counter, fence — everything stored in
    the closing epoch becomes durable as a group.  Raises
    [Invalid_argument] if a transaction is open, since the boundary must
    be transaction-consistent. *)

val advance_if_quiescent : span:((unit -> unit) -> unit) -> t -> unit
(** Best effort: advance (inside [span]) only when no transaction is
    open — deferring durability is always safe. *)
