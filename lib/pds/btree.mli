(** A persistent B+-tree in simulated NVM (order 8, int64 keys and
    values), the recoverable data structure of the paper's Sections
    5.2/5.3 experiments.

    The persistence {!mode} selects the paper's three layers: volatile
    DRAM, persistent-but-not-recoverable NVM (raw non-temporal stores), or
    REWIND-logged (every mutation of reachable state goes through
    [Tm.write]; fresh nodes are initialised durably before being linked,
    so no-force redo never re-creates a dangling link). *)

type mode =
  | Dram        (** cached stores: volatile *)
  | Direct_nvm  (** non-temporal stores: persistent, not recoverable *)
  | Logged of Rewind.Tm.t  (** REWIND transactions: atomic + durable *)

type t

val create : mode -> Rewind_nvm.Alloc.t -> t

val attach : mode -> Rewind_nvm.Alloc.t -> root_cell:int -> t
(** Reattach to an existing tree — possibly under a different mode (e.g.
    load raw, then run logged), or after crash recovery. *)

val root_cell : t -> int
(** NVM word holding the root; persist it to find the tree again. *)

(** {1 Operations}

    [txn] is the enclosing REWIND transaction under [Logged]; pass 0 for
    the raw modes. *)

val insert : t -> Rewind.Tm.txn -> int64 -> int64 -> unit
(** Insert or update in place. *)

val delete : t -> Rewind.Tm.txn -> int64 -> bool
(** Full B+-tree deletion with borrowing and merging; [false] if absent. *)

val bulk_load : t -> Rewind.Tm.txn -> (int64 * int64) list -> unit
(** Build an empty tree from strictly-sorted bindings bottom-up: all node
    construction uses fresh durable stores, and one logged root swing
    makes the whole load crash-atomic. *)

val lookup : t -> int64 -> int64 option
val mem : t -> int64 -> bool

(** {1 Traversal} *)

val iter : t -> (int64 -> int64 -> unit) -> unit
(** Ascending-key iteration along the leaf chain. *)

val iter_range : t -> lo:int64 -> hi:int64 -> (int64 -> int64 -> unit) -> unit
(** Ascending iteration over keys in [lo, hi] inclusive. *)

val range : t -> lo:int64 -> hi:int64 -> (int64 * int64) list

val size : t -> int
val bindings : t -> (int64 * int64) list

val well_formed : t -> bool
(** Sorted keys, child separation, uniform leaf depth, occupancy bounds,
    strictly increasing leaf chain.  For tests. *)
