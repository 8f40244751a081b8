(* Persistent-heap allocator over an {!Arena}.

   The design follows the constraint REWIND states for memory management
   (Section 4.3): allocation must never hand out space that a post-crash
   recovery could still need.  We guarantee this with a monotone bump
   cursor that is itself durable: the cursor word is advanced with a
   non-temporal store, so after a crash the cursor can only be at or past
   every allocation ever made.  Space reclaimed by [free] goes to a
   volatile size-class free list — reuse is safe because REWIND only frees
   memory whose last transactional use has committed — and is simply leaked
   if the system crashes before reuse, mirroring the paper's observation
   that de-allocation cannot be undone without OS support.  [alloc]
   reuses that space; [alloc_fresh] never does (its space is durably
   zero); [alloc_recycled] only does, for callers that reset what their
   recovery reads (Batch log buckets).

   Consecutive allocations write the same cursor cacheline, so the arena's
   write-combining makes the durability of allocation nearly free. *)

type t = {
  arena : Arena.t;
  cursor_off : int;  (* durable word holding the bump cursor *)
  limit : int;
  free_lists : (int * int, int list ref) Hashtbl.t;
      (* (size, align) -> offsets (volatile) *)
  slabs : (int * int, (int * int) ref) Hashtbl.t;
      (* (size, align) -> (next offset, objects left) in the current slab *)
  mu : Sim_mutex.t;
      (* allocator metadata is shared across fibers; a contention-free
         Sim_mutex with zero acquire cost charges no simulated time while
         giving the race detector the happens-before edges of
         cross-fiber alloc/free/reuse *)
  live : (int, int) Hashtbl.t;  (* offset -> size, regions handed out *)
  freed_set : (int, unit) Hashtbl.t;  (* offsets already returned *)
  recovered : bool;
      (* a reattached heap has no record of pre-crash allocations, so a
         free of an unknown offset is legal exactly once there *)
  mutable live_bytes : int;
  mutable allocations : int;
  mutable frees : int;
}

let align8 n = (n + 7) land lnot 7

(* The allocator owns root slot [root]; its cursor lives right after the
   arena's reserved root directory. *)
let create ?(root = 1) arena =
  let cursor_off = Arena.reserved_bytes in
  let heap_base = cursor_off + 8 in
  let existing = Int64.to_int (Arena.root_get arena root) in
  if existing = 0 then begin
    Arena.nt_write arena cursor_off (Int64.of_int heap_base);
    Arena.fence arena;
    Arena.root_set arena root (Int64.of_int cursor_off)
  end;
  {
    arena;
    cursor_off;
    limit = Arena.size arena;
    free_lists = Hashtbl.create 64;
    slabs = Hashtbl.create 16;
    mu = Sim_mutex.create ~acquire_ns:0 ~contention_free:true ();
    live = Hashtbl.create 256;
    freed_set = Hashtbl.create 64;
    recovered = false;
    live_bytes = 0;
    allocations = 0;
    frees = 0;
  }

(* Reattach to the heap of a crashed arena: the durable cursor is trusted,
   volatile free lists start empty (crash leaks freed-but-unreused space). *)
let recover ?(root = 1) arena =
  let cursor_off = Int64.to_int (Arena.root_get arena root) in
  if cursor_off = 0 then create ~root arena
  else
    {
      arena;
      cursor_off;
      limit = Arena.size arena;
      free_lists = Hashtbl.create 64;
      slabs = Hashtbl.create 16;
      mu = Sim_mutex.create ~acquire_ns:0 ~contention_free:true ();
      live = Hashtbl.create 256;
      freed_set = Hashtbl.create 64;
      recovered = true;
      live_bytes = 0;
      allocations = 0;
      frees = 0;
    }

exception Out_of_memory_arena
exception Misuse of string

let cursor t = Int64.to_int (Arena.read t.arena t.cursor_off)

let bump t ~align size =
  let off = (cursor t + align - 1) land lnot (align - 1) in
  let next = off + size in
  if next > t.limit then raise Out_of_memory_arena;
  Arena.nt_write t.arena t.cursor_off (Int64.of_int next);
  off

(* Small objects are carved out of slabs so the durable cursor is advanced
   once per [slab_objects] allocations rather than per object.  Space of a
   partially-used slab leaks on a crash — the cursor is still monotone and
   never regresses below any handed-out object. *)
let slab_objects = 64
let slab_max_size = 512

let bump_small t ~align size =
  let key = (size, align) in
  let cell =
    match Hashtbl.find_opt t.slabs key with
    | Some c -> c
    | None ->
        let c = ref (0, 0) in
        Hashtbl.replace t.slabs key c;
        c
  in
  let off, left = !cell in
  if left > 0 then begin
    cell := (off + size, left - 1);
    off
  end
  else begin
    let off = bump t ~align (size * slab_objects) in
    cell := (off + size, slab_objects - 1);
    off
  end

let with_mu t f = Sim_mutex.with_lock t.mu f

(* Validate an allocation request; the 8-byte-aligned size. *)
let checked fn ~align size =
  if size <= 0 then invalid_arg (fn ^ ": non-positive size");
  if align land (align - 1) <> 0 then invalid_arg (fn ^ ": align");
  align8 size

(* Hand out [off] for [size] bytes (caller holds [mu]). *)
let hand_out t off size =
  t.allocations <- t.allocations + 1;
  t.live_bytes <- t.live_bytes + size;
  Hashtbl.replace t.live off size;
  Hashtbl.remove t.freed_set off;
  Pmcheck.allocated t.arena ~addr:off ~len:size;
  off

(* Pop a freed block of exactly this (size, align) class (caller holds
   [mu]). *)
let pop_free t ~align size =
  match Hashtbl.find_opt t.free_lists (size, align) with
  | Some ({ contents = off :: rest } as cell) ->
      cell := rest;
      Some off
  | Some _ | None -> None

let alloc ?(align = 8) t size =
  let size = checked "Alloc.alloc" ~align size in
  with_mu t (fun () ->
      let off =
        match pop_free t ~align size with
        | Some off -> off
        | None ->
            if size <= slab_max_size && size land (align - 1) = 0 then
              bump_small t ~align size
            else bump t ~align size
      in
      hand_out t off size)

(* Space past the monotone bump cursor has never been written, so it is
   durably zero by construction: what callers need whose recovery treats
   0 as "empty" even after a crash. *)
let alloc_fresh ?(align = 8) t size =
  let size = checked "Alloc.alloc_fresh" ~align size in
  with_mu t (fun () -> hand_out t (bump t ~align size) size)

let alloc_recycled ?(align = 8) t size =
  let size = checked "Alloc.alloc_recycled" ~align size in
  with_mu t (fun () ->
      Option.map (fun off -> hand_out t off size) (pop_free t ~align size))

(* [free] validates its argument instead of trusting the caller (the
   analogue of Sim_mutex's double-unlock check): a double free would put
   the same offset on the free list twice and hand one region to two
   callers, and a free of a never-allocated offset poisons the list with
   space the cursor still considers virgin.  The one legal unknown-offset
   free is of a pre-crash allocation on a [recover]ed heap, whose
   allocation records died with the crash. *)
let free ?(align = 8) t off size =
  if size <= 0 then invalid_arg "Alloc.free: non-positive size";
  let size = align8 size in
  with_mu t (fun () ->
      (match Hashtbl.find_opt t.live off with
      | Some sz ->
          if sz <> size then
            raise
              (Misuse
                 (Fmt.str
                    "Alloc.free: offset %d was allocated with size %d, freed \
                     with size %d"
                    off sz size));
          Hashtbl.remove t.live off
      | None ->
          if Hashtbl.mem t.freed_set off then
            raise (Misuse (Fmt.str "Alloc.free: double free of offset %d" off));
          if not t.recovered then
            raise
              (Misuse
                 (Fmt.str "Alloc.free: offset %d was never allocated" off)));
      Hashtbl.replace t.freed_set off ();
      t.frees <- t.frees + 1;
      t.live_bytes <- t.live_bytes - size;
      Pmcheck.freed t.arena ~addr:off ~len:size;
      match Hashtbl.find_opt t.free_lists (size, align) with
      | Some cell -> cell := off :: !cell
      | None -> Hashtbl.replace t.free_lists (size, align) (ref [ off ]))

let live_bytes t = t.live_bytes
let allocations t = t.allocations
let frees t = t.frees
let arena t = t.arena
