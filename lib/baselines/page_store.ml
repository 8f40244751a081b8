(* Buffer-pool page store for the baseline systems: pages live on a
   simulated PMFS file and are cached in volatile memory.  The WAL rule is
   enforced here: before a dirty page is written back, the log is forced
   (the [wal_force] hook).  A crash discards the cache; the device keeps
   whatever was flushed. *)

open Rewind_nvm

type page = { data : Bytes.t; mutable dirty : bool }

type t = {
  dev : Block_dev.t;
  cache : (int, page) Hashtbl.t;
  wal_force : unit -> unit;
  page_touch_ns : int;  (* buffer-manager code path per page access *)
  mutable next_page : int;  (* page allocation high-water mark *)
}

let create ?(config = Config.default ()) ?(page_touch_ns = 300) ~wal_force
    ~preallocated () =
  {
    dev = Block_dev.create ~config ();
    cache = Hashtbl.create 1024;
    wal_force;
    page_touch_ns;
    next_page = preallocated;
  }

let page_size t = Block_dev.block_size t.dev

let alloc_page t =
  let p = t.next_page in
  t.next_page <- p + 1;
  p

(* Fetch into the cache.  A miss pays the buffer-manager admission path on
   top of the device read; resident pages are free at word granularity —
   the per-operation code-path cost lives in the storage manager above. *)
let get t id =
  match Hashtbl.find_opt t.cache id with
  | Some p -> p
  | None ->
      Clock.advance t.page_touch_ns;
      let p = { data = Block_dev.read t.dev id; dirty = false } in
      Hashtbl.replace t.cache id p;
      p

let read_word t id off = Bytes.get_int64_le (get t id).data off

let write_word t id off v =
  let p = get t id in
  Bytes.set_int64_le p.data off v;
  p.dirty <- true

let flush_all t =
  t.wal_force ();
  Hashtbl.iter
    (fun id p ->
      if p.dirty then begin
        Block_dev.write t.dev id p.data;
        p.dirty <- false
      end)
    t.cache

(* A crash empties the buffer pool. *)
let crash t = Hashtbl.reset t.cache

let device t = t.dev
let set_next_page t n = t.next_page <- n
