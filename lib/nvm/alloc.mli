(** Persistent-heap allocator over an {!Arena}.

    Crash discipline (Section 4.3): allocation never hands out space that
    a post-crash recovery could still need.  A durable, monotone bump
    cursor guarantees it; small objects are carved from slabs so the
    cursor write amortises.  [free]d space goes to volatile size-class
    free lists — reuse is safe because REWIND frees only memory whose last
    transactional use is settled — and is leaked by a crash, mirroring the
    paper's observation that de-allocation cannot be undone without OS
    support.  Thread-safe across domains. *)

type t

exception Out_of_memory_arena

exception Misuse of string
(** Raised by {!free} on a double free, a free of a never-allocated
    offset, or a free whose size contradicts the allocation's (the
    allocator analogue of {!Sim_mutex}'s double-unlock check). *)

val create : ?root:int -> Arena.t -> t
(** Fresh heap; the cursor is anchored at the arena root slot [root]
    (default 1). *)

val recover : ?root:int -> Arena.t -> t
(** Reattach after a crash: the durable cursor is trusted; free lists
    restart empty. *)

val alloc : ?align:int -> t -> int -> int
(** [alloc t size] returns an 8-byte-aligned (or [align]-aligned) NVM
    offset.  May reuse freed space of the same (size, align) class. *)

val alloc_fresh : ?align:int -> t -> int -> int
(** Like {!alloc} but never reuses freed space: the returned region has
    never been written and is durably zero — required by structures whose
    recovery treats zero as "empty": Optimized log buckets, ADLL headers,
    InCLL cells and directories.  Batch log buckets do not need it: their
    recovery trusts only the slots below a durable index, which a recycled
    bucket resets. *)

val alloc_recycled : ?align:int -> t -> int -> int option
(** Pop a freed region of exactly this [(size, align)] class, or [None]
    when there is none; never advances the cursor.  The region holds
    whatever its last owner left in it. *)

val free : ?align:int -> t -> int -> int -> unit
(** [free t off size] returns a region to the (volatile) free list.  Only
    legal once no post-crash recovery can reference it.  Raises {!Misuse}
    on a double free, a never-allocated offset, or a size mismatch — on a
    {!recover}ed heap a first free of an unknown offset is accepted (the
    allocation predates the crash), but a second is still a double
    free. *)

val live_bytes : t -> int
val allocations : t -> int
val frees : t -> int
val arena : t -> Arena.t
val cursor : t -> int
