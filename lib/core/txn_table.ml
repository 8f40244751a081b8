(* The transaction table (Section 4.1): the WAL manager's only
   per-transaction state.

   Volatile by design: REWIND reconstructs it during recovery in every
   configuration.  Each log partition keeps one table, holding an entry
   for every transaction homed there from its begin until it settles —
   and, under no-force, until the checkpoint whose horizon passes its
   END record retires it.  Recovery keeps only the in-doubt entries.
   Entries carry the transaction's status (the 2PC id when prepared),
   its first LSN, its most recent record (two-layer back-chains), the
   LSN of its END record and its deferred de-allocations. *)

type status = Running | Aborted | Prepared of int | Finished

type entry = {
  id : int;
  mutable status : status;
  mutable first_lsn : int;  (* its first LSN; 0 until it takes one *)
  mutable last_record : int;  (* NVM address of the latest record; 0 if none *)
  mutable end_lsn : int;  (* the LSN of its END record; 0 until it settles *)
  mutable deletes : (int * int * int) list;
      (* DELETE record lsn, addr, size: the de-allocations its commit
         runs, newest first *)
}

type t = (int, entry) Hashtbl.t

let create () : t = Hashtbl.create 64

let find_or_add t id =
  match Hashtbl.find_opt t id with
  | Some e -> e
  | None ->
      let e =
        {
          id;
          status = Running;
          first_lsn = 0;
          last_record = 0;
          end_lsn = 0;
          deletes = [];
        }
      in
      Hashtbl.add t id e;
      e

let find t id = Hashtbl.find_opt t id
let iter t f = Hashtbl.iter (fun _ e -> f e) t
let fold t f acc = Hashtbl.fold (fun _ e acc -> f e acc) t acc
let remove t id = Hashtbl.remove t id
