(** The paper's running example (Listings 1 and 2): a persistent
    doubly-linked list whose critical updates run as REWIND transactions.
    Every store to reachable state is preceded by its log call (fused into
    [Tm.write]); node de-allocation is deferred past commit via a DELETE
    record, exactly as Listing 2 requires. *)

type t

val create : Rewind.Tm.t -> Rewind_nvm.Alloc.t -> t
val attach : Rewind.Tm.t -> Rewind_nvm.Alloc.t -> head_cell:int -> tail_cell:int -> t
val head_cell : t -> int
val tail_cell : t -> int

val push_back : t -> Rewind.Tm.txn -> int64 -> int
(** Append a value inside an open transaction; returns the node address. *)

val remove : t -> Rewind.Tm.txn -> int -> unit
(** Listing 1's [remove], expanded as in Listing 2; the node's memory is
    freed only after commit. *)

(** {1 Reads} *)

val head : t -> int
val tail : t -> int
val next : t -> int -> int
val prev : t -> int -> int
val value : t -> int -> int64
val is_empty : t -> bool
val length : t -> int
val to_list : t -> int64 list
val iter : t -> (int -> int64 -> unit) -> unit

val find : t -> int64 -> int
(** First node holding the value, or 0. *)

val well_formed : t -> bool
