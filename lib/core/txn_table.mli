(** The transaction table (Section 4.1): the WAL manager's only
    per-transaction state.

    Volatile by design: REWIND reconstructs it during recovery in every
    configuration.  Each log partition keeps one, with an entry for every
    transaction homed there from its begin until it settles (under
    no-force, until a checkpoint retires it); recovery keeps only the
    in-doubt entries. *)

type status =
  | Running
  | Aborted
  | Prepared of int  (** in doubt, with its global (2PC) id *)
  | Finished

type entry = {
  id : int;
  mutable status : status;
  mutable first_lsn : int;  (** its first LSN; 0 until it takes one *)
  mutable last_record : int;  (** NVM address of the latest record; 0 if none *)
  mutable end_lsn : int;  (** the LSN of its END record; 0 until it settles *)
  mutable deletes : (int * int * int) list;
      (** DELETE record lsn, addr, size: the de-allocations its commit
          runs, newest first *)
}

type t

val create : unit -> t
val find_or_add : t -> int -> entry
val find : t -> int -> entry option
val remove : t -> int -> unit
val iter : t -> (entry -> unit) -> unit
val fold : t -> (entry -> 'a -> 'a) -> 'a -> 'a
