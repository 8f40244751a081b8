(** The TPC-C new-order transaction (Section 5.3): the most write-intensive
    TPC-C transaction and the paper's stress-test workload.  One percent of
    requests reference an invalid item and roll back; the non-recoverable
    execution abandons them mid-flight, as in the paper. *)

exception Invalid_item

type line = { li_item : int; li_qty : int }

type request = {
  rq_warehouse : int;
  rq_district : int;
  rq_customer : int;
  rq_lines : line list;
  rq_invalid : bool;
}

val gen_request :
  ?warehouse:int -> ?district:int -> ?customers:int -> Rng.t -> items:int ->
  request
(** TPC-C request: 5–15 NURand order lines, 1 % invalid. *)

type outcome = Committed | Aborted

val run_transactional : ?home:int -> Schema.db -> Rewind.Tm.t -> request -> outcome
(** [?home] pins the transaction's log partition (home-warehouse
    pinning); defaults to the transaction manager's round-robin. *)

val run_raw : Schema.db -> request -> outcome
