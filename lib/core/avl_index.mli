(** The Atomic AVL Tree (AAVLT, Section 3.4): the two-layer
    configuration's top layer, indexing log records by LSN.

    Every write to reachable tree state is WAL-logged into the underlying
    bucket log ({!Log.t}, the bottom layer) before being applied with a
    non-temporal store; an operation's records are cleared (END last)
    once it completes.  Only one operation is ever pending, so {!recover}
    is a one-transaction scheme: physical undo of the interrupted
    operation, idempotent under repeated crashes. *)

type t

val create : Rewind_nvm.Alloc.t -> ilog:Log.t -> t
val attach : Rewind_nvm.Alloc.t -> ilog:Log.t -> root_ptr:int -> t

val root_ptr : t -> int
(** NVM word holding the tree root; persist it to reattach after a crash. *)

val recover : t -> unit
(** Undo (or finish clearing) the at-most-one interrupted operation. *)

(** {1 Atomic operations} *)

val op : t -> (unit -> 'a) -> 'a
(** Run the callback as one crash-atomic tree operation: its logged writes
    are followed by an internal END record and cleared in O(1) via
    handles; deferred node frees happen after clearing. *)

val insert : t -> int -> int
(** [insert t key] finds or creates the node for [key] as one atomic
    operation; returns the node address. *)

val insert_in_op : t -> int -> int
(** Like {!insert} but to be called inside an enclosing {!op}, so that the
    insertion and payload updates commit together. *)

val remove : t -> int -> bool

val clear : t -> unit
(** Wholesale clearing: one logged root swing empties the tree durably;
    node memory returns to the allocator. *)

(** {1 Reads} *)

val find : t -> int -> int
(** Node address for a key, or 0. *)

val mem : t -> int -> bool
val key : t -> int -> int
val size : t -> int
val keys : t -> int list

val iter : t -> (int -> unit) -> unit
(** In-order traversal — for LSN keys, ascending log order. *)

(** {1 Node payload}

    One word of payload ([head_record]) plus two auxiliary words; payload
    writes are logged and must run inside an {!op}. *)

val head_record : t -> int -> int
val set_head_record : t -> int -> int -> unit
val status : t -> int -> int
val set_status : t -> int -> int -> unit
val undo_next : t -> int -> int
val set_undo_next : t -> int -> int -> unit

val well_formed : t -> bool
(** AVL + BST invariant check, for tests. *)
