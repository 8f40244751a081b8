(** Buffer-pool page store for the baseline systems: pages live on a
    simulated PMFS file and are cached in volatile memory.  The WAL rule is
    enforced here — the log is forced before any dirty page write-back.
    A crash empties the pool. *)

type t

val create :
  ?config:Rewind_nvm.Config.t ->
  ?page_touch_ns:int ->
  wal_force:(unit -> unit) ->
  preallocated:int ->
  unit ->
  t

val page_size : t -> int
val alloc_page : t -> int
val read_word : t -> int -> int -> int64
val write_word : t -> int -> int -> int64 -> unit
val flush_all : t -> unit
val crash : t -> unit
val device : t -> Rewind_nvm.Block_dev.t
val set_next_page : t -> int -> unit
