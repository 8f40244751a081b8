(** A transactional key/value storage manager in the architecture REWIND
    is compared against (Section 5.2): block I/O through a simulated PMFS,
    page-granularity buffer management, a volatile log buffer forced at
    commit, ARIES-style redo/undo recovery.

    One engine, three calibrated {!profile}s: Stasis-like (compact logical
    records, device-resident rollback), BerkeleyDB-like (verbose physical
    records, heavier code path), Shore-MT-like (heaviest code path, but
    per-partition distributed logs and in-memory undo buffers). *)

type profile = {
  name : string;
  record_pad : int;
  op_overhead_ns : int;
  commit_overhead_ns : int;
  undo_op_ns : int;
  recover_op_ns : int;
  undo_in_memory : bool;
  log_partitions : int;
  page_touch_ns : int;
}

val stasis_profile : profile
(** Stasis [27]: compact logical records, lean code path. *)

val bdb_profile : profile
(** BerkeleyDB [22], deployed as in the paper: lock manager disabled,
    cache and log-buffer sizes matching the Stasis configuration. *)

val shore_profile : profile
(** Shore-MT in the NVM-adapted variant of Wang & Johnson [33]: one
    distributed log per core (up to four), durable-cache commit. *)

type t

val create : ?config:Rewind_nvm.Config.t -> ?nbuckets:int -> profile -> t
val name : t -> string
val profile : t -> profile

(** {1 Transactions} *)

val begin_txn : t -> int
val put : t -> int -> int64 -> int64 -> unit
val delete : t -> int -> int64 -> bool
val lookup : t -> int64 -> int64 option
(** Lock-free read, as in the paper's multithreaded deployment. *)

val commit : t -> int -> unit
(** Logs a commit record and forces the transaction's log partition. *)

val rollback : t -> int -> unit
(** Undo the transaction: Stasis/BerkeleyDB walk the device-resident log;
    Shore-MT applies its in-memory undo buffers. *)

(** {1 Crash & recovery} *)

val crash : t -> unit
(** Drop the buffer pool, the log buffers and the active-transaction
    table; only device-resident state survives. *)

val recover : t -> unit
(** ARIES-style restart: rediscover the page-allocation high-water mark,
    analyse the durable log, redo history, undo losers, flush, truncate. *)

val checkpoint : t -> unit
(** Quiescent checkpoint: flush dirty pages, truncate the log.  Fails on
    active transactions. *)

val size : t -> int
val commits : t -> int
