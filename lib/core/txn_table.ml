(* The transaction table (Section 4.1).

   Volatile by design: REWIND reconstructs it during recovery in every
   configuration (one-layer logging does not even maintain it while
   logging; the two-layer configuration mirrors it in the AAVLT nodes).
   Entries carry the transaction's status and its most recent record. *)

type status = Running | Aborted | Prepared | Finished

type entry = {
  id : int;
  mutable status : status;
  mutable last_record : int;  (* NVM address of the latest record; 0 if none *)
}

type t = { entries : (int, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let find_or_add t id =
  match Hashtbl.find_opt t.entries id with
  | Some e -> e
  | None ->
      let e = { id; status = Running; last_record = 0 } in
      Hashtbl.add t.entries id e;
      e

let find t id = Hashtbl.find_opt t.entries id
let iter t f = Hashtbl.iter (fun _ e -> f e) t.entries
let remove t id = Hashtbl.remove t.entries id
let size t = Hashtbl.length t.entries

let unfinished t =
  Hashtbl.fold
    (fun _ e acc -> if e.status <> Finished then e :: acc else acc)
    t.entries []
