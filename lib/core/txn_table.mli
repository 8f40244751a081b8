(** The transaction table (Section 4.1).

    Volatile by design: REWIND reconstructs it during recovery in every
    configuration.  One-layer logging does not maintain it while logging
    at all; two-layer logging keeps it updated as records are chained. *)

type status = Running | Aborted | Prepared | Finished

type entry = {
  id : int;
  mutable status : status;
  mutable last_record : int;  (** NVM address of the latest record; 0 if none *)
}

type t

val create : unit -> t
val find_or_add : t -> int -> entry
val find : t -> int -> entry option
val remove : t -> int -> unit
val iter : t -> (entry -> unit) -> unit
val size : t -> int
val unfinished : t -> entry list
