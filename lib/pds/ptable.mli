(** The flat in-memory table of the Section 5.1 microbenchmarks: a fixed
    array of word cells in NVM, updated transactionally through REWIND or
    raw (the non-recoverable baselines the logging overhead is measured
    against). *)

type t

val create : Rewind_nvm.Alloc.t -> slots:int -> t
val slots : t -> int
val addr : t -> int -> int
val get : t -> int -> int64

val set : t -> Rewind.Tm.t -> Rewind.Tm.txn -> int -> int64 -> unit
(** Transactional update through REWIND. *)

val set_raw_nvm : t -> int -> int64 -> unit
(** Non-recoverable persistent update: a non-temporal store. *)

