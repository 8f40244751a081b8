(** Simulated PMFS-style block device, the I/O substrate of the baseline
    systems.  Each operation costs a kernel crossing; a write additionally
    costs one NVM cacheline write per 64 bytes of user data transferred —
    the paper's generous accounting, which charges nothing for the file
    system's internal bookkeeping.

    Durability model: [write] is durable immediately (PMFS is a
    synchronous, cache-bypassing store); a crash loses nothing at the
    device level — volatile state (page caches, log buffers) lives in the
    storage managers above. *)

type t

val create :
  ?config:Config.t -> ?block_size:int -> ?syscall_ns:int -> unit -> t

val block_size : t -> int
val write : t -> int -> Bytes.t -> unit
val write_sub : t -> int -> Bytes.t -> int -> unit
(** Partial block write (e.g. a log tail); charges only the bytes moved. *)

val read : t -> int -> Bytes.t
(** Absent blocks read as zeroes. *)

val mem : t -> int -> bool
val sync : t -> unit
val crash : t -> unit
val writes : t -> int
val reads : t -> int
