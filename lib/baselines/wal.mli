(** Block-based write-ahead log for the baseline systems: records
    accumulate in a volatile buffer and reach persistence only when the
    buffer is forced through the simulated PMFS — a kernel crossing plus
    block-granularity writes — at commit or before a page write-back.  A
    crash discards the buffer. *)

type t

val create : ?record_pad:int -> ?config:Rewind_nvm.Config.t -> unit -> t
(** [record_pad] models the verbosity of the system's record format. *)

val block_size : t -> int

val append : t -> string -> int
(** Buffer one serialised record; returns its LSN.  Volatile until
    {!force}. *)

val force : t -> unit
(** Write every block the buffered tail touches, then sync. *)

val crash : t -> unit
val iter_durable : t -> (string -> unit) -> unit
(** Re-read and parse every durable record from the device (recovery, and
    the device-resident rollback of Stasis/BerkeleyDB). *)

val truncate : t -> unit
val device : t -> Rewind_nvm.Block_dev.t
