(* In-cache-line logging (InCLL), after Cohen et al., "Fine-Grain
   Checkpointing with In-Cache-Line Logging" (ASPLOS'19): the undo entry
   lives in the *same cache line* as the data it protects, so a logged
   update between epoch checkpoints costs zero extra NVM line writes and
   no fence at all.

   Layout — every managed cell owns one full cache line:

     +0   data word
     +8   undo word   (the cell's value at its first store of the epoch)
     +16  epoch tag   (the epoch of that capture; 0 = never captured)

   The protocol replaces WAL ordering with *line atomicity*: because
   data, undo and tag travel in one line, any write-back — explicit,
   spontaneous eviction, or none at all — lands an internally consistent
   snapshot in NVM.  Either the tag predates the current epoch (data is
   the epoch-start value, undo irrelevant) or the tag equals it (undo is
   the epoch-start value, data arbitrary mid-epoch).  Recovery therefore
   needs no order between cells and no fences between updates: it reads
   the durable epoch counter E, rewinds every cell whose tag equals E to
   its undo word, and advances the epoch.

   The first store to a cell in an epoch captures undo+tag (two extra
   cached stores, same line); every later store in the epoch is a single
   cached store.  [advance] is the group-commit point: flush all dirty
   lines, fence, bump the durable epoch counter (one non-temporal store),
   fence.  A crash loses at most the current epoch — state rolls back to
   the last advance, which is transaction-consistent because [advance]
   requires quiescence.

   Durable metadata besides the cells: a one-line epoch counter, and a
   directory of cell addresses (chunked linked list) so recovery can
   enumerate the cells without trusting volatile state.  Both come from
   {!Alloc.alloc_fresh}, which returns durably-zero, never-recycled
   space — so a fresh cell's tag (0) can never equal a live epoch
   (epochs start at 1), and a torn directory entry cannot alias freed
   memory.

   This module is also InCLL's whole transaction layer, which {!Tm}
   delegates to: volatile per-transaction undo journals for abort and
   savepoint rollback, and the epoch advance gated on quiescence. *)

open Rewind_nvm

let data_off = 0
let undo_off = 8
let tag_off = 16

(* Directory chunks: 63 cell-address slots plus a next-chunk pointer.
   Slots fill in order; 0 terminates (alloc_fresh space is never at
   offset 0 — the arena reserves its root block). *)
let dir_slots = 63
let dir_bytes = (dir_slots + 1) * 8

type t = {
  arena : Arena.t;
  alloc : Alloc.t;
  line : int; (* cacheline bytes; also the per-cell footprint *)
  epoch_addr : int; (* the durable epoch counter word *)
  mutable cur_epoch : int; (* cached copy of the durable counter *)
  mutable cells : int list; (* registered cells, newest first (volatile) *)
  registered : (int, unit) Hashtbl.t; (* cell addr -> () *)
  mutable dir_tail : int; (* chunk holding the next free slot *)
  mutable dir_fill : int; (* used slots in [dir_tail] *)
  txns : (int, (int * int64) list ref) Hashtbl.t;
      (* open transaction -> volatile undo journal (addr, old value),
         newest first *)
  latch : Sim_mutex.t; (* guards [txns] *)
}

let epoch t = t.cur_epoch

let line_of_arena arena =
  let line = (Arena.config arena).Config.cacheline_bytes in
  if line < tag_off + 8 then
    Fmt.invalid_arg
      "Incll: cacheline of %d bytes cannot hold data+undo+tag words" line;
  line

let make arena alloc ~line ~epoch_addr ~epoch ~dir_head =
  {
    arena;
    alloc;
    line;
    epoch_addr;
    cur_epoch = epoch;
    cells = [];
    registered = Hashtbl.create 256;
    dir_tail = dir_head;
    dir_fill = 0;
    txns = Hashtbl.create 16;
    latch = Sim_mutex.create ();
  }

let create alloc ~root_slot =
  let arena = Alloc.arena alloc in
  let line = line_of_arena arena in
  let epoch_addr = Alloc.alloc_fresh ~align:line alloc line in
  let dir_head = Alloc.alloc_fresh ~align:line alloc dir_bytes in
  (* Epochs start at 1 so a fresh cell's zero tag never matches. *)
  Arena.nt_write arena epoch_addr 1L;
  Arena.fence arena;
  Arena.root_set arena root_slot (Int64.of_int epoch_addr);
  Arena.root_set arena (root_slot + 1) (Int64.of_int dir_head);
  make arena alloc ~line ~epoch_addr ~epoch:1 ~dir_head

let attach alloc ~root_slot =
  let arena = Alloc.arena alloc in
  let line = line_of_arena arena in
  let epoch_addr = Int64.to_int (Arena.root_get arena root_slot) in
  let dir_head = Int64.to_int (Arena.root_get arena (root_slot + 1)) in
  let epoch = Int64.to_int (Arena.durable_read arena epoch_addr) in
  let t = make arena alloc ~line ~epoch_addr ~epoch ~dir_head in
  (* Rebuild the volatile cell list from the durable directory. *)
  let rec walk chunk =
    let fill = ref 0 in
    (try
       for i = 0 to dir_slots - 1 do
         let a = Int64.to_int (Arena.durable_read arena (chunk + (i * 8))) in
         if a = 0 then raise Exit;
         t.cells <- a :: t.cells;
         Hashtbl.replace t.registered a ();
         incr fill
       done
     with Exit -> ());
    let next =
      Int64.to_int (Arena.durable_read arena (chunk + (dir_slots * 8)))
    in
    if next = 0 then begin
      t.dir_tail <- chunk;
      t.dir_fill <- !fill
    end
    else walk next
  in
  walk dir_head;
  t

(* One durable store registers the cell; a full chunk costs one more to
   link its successor.  No fence: in the simulated crash model a
   non-temporal store is ordered on arrival, and an unregistered-but-
   allocated cell is merely leaked space, never an inconsistency (its
   tag is zero, so recovery would skip it anyway). *)
let alloc_cell t =
  let addr = Alloc.alloc_fresh ~align:t.line t.alloc t.line in
  if t.dir_fill = dir_slots then begin
    let chunk = Alloc.alloc_fresh ~align:t.line t.alloc dir_bytes in
    Arena.nt_write t.arena
      (t.dir_tail + (dir_slots * 8))
      (Int64.of_int chunk);
    t.dir_tail <- chunk;
    t.dir_fill <- 0
  end;
  Arena.nt_write t.arena (t.dir_tail + (t.dir_fill * 8)) (Int64.of_int addr);
  t.dir_fill <- t.dir_fill + 1;
  t.cells <- addr :: t.cells;
  Hashtbl.replace t.registered addr ();
  addr

(* The update path.  First store of the epoch: capture undo+tag (cached,
   same line), announced to the sanitizer as epoch coverage of the whole
   line *before* any of the three stores.  Later stores of the epoch:
   one cached store, nothing else — this is the ~1.0-lines-per-update
   fast path the config exists for.  [addr] must be a registered cell. *)
let store t ~addr ~value =
  let st = Arena.stats t.arena in
  if Arena.read t.arena (addr + tag_off) <> Int64.of_int t.cur_epoch then begin
    st.Stats.incll_captures <- st.Stats.incll_captures + 1;
    Pmcheck.epoch_logged t.arena ~addr ~len:t.line ~epoch:t.cur_epoch;
    Arena.write t.arena (addr + undo_off) (Arena.read t.arena (addr + data_off));
    Arena.write t.arena (addr + tag_off) (Int64.of_int t.cur_epoch)
  end
  else st.Stats.incll_elided <- st.Stats.incll_elided + 1;
  Arena.write t.arena (addr + data_off) value

(* The epoch checkpoint (group-commit point): make every capture of the
   closing epoch durable, then bump the counter.  A crash before the
   counter's non-temporal store lands rolls the whole epoch back; after
   it, the epoch is committed.  The [Epoch_advanced] annotation sits
   between the fence and the bump so the sanitizer checks exactly the
   protocol's claim: all epoch-covered lines durable and ordered before
   the counter moves. *)
let advance t =
  Arena.flush_all t.arena;
  Arena.fence_if_needed t.arena;
  let next = t.cur_epoch + 1 in
  Pmcheck.epoch_advanced t.arena ~epoch:next;
  Arena.nt_write t.arena t.epoch_addr (Int64.of_int next);
  Arena.fence t.arena;
  t.cur_epoch <- next;
  let st = Arena.stats t.arena in
  st.Stats.epoch_advances <- st.Stats.epoch_advances + 1

(* Post-crash: rewind every cell captured in the crashed epoch, then
   advance so the rolled-back state becomes the new epoch boundary.
   Idempotent across nested crashes — rewinding writes [undo] into
   [data] and touches neither [undo] nor [tag], and the advance flushes
   everything before the counter bumps, so a crash anywhere inside
   recovery replays to the same state.  Every open transaction died with
   the crash, so its journal goes too.  Returns (cells scanned, cells
   rewound). *)
let recover t =
  Hashtbl.reset t.txns;
  let e = Int64.of_int t.cur_epoch in
  let rolled = ref 0 in
  List.iter
    (fun addr ->
      if Arena.read t.arena (addr + tag_off) = e then begin
        Arena.write t.arena (addr + data_off)
          (Arena.read t.arena (addr + undo_off));
        incr rolled
      end)
    t.cells;
  advance t;
  (Hashtbl.length t.registered, !rolled)

(* -- the transaction layer ------------------------------------------------ *)

exception Not_open of int
exception Unregistered_cell of int

let journal t txn =
  match Hashtbl.find_opt t.txns txn with
  | Some j -> j
  | None -> raise (Not_open txn)

(* Drop [txn]'s journal, returning its entries newest first. *)
let close t txn =
  let j = journal t txn in
  Hashtbl.remove t.txns txn;
  !j

(* Restore journal entries newest first through the ordinary store path
   (so a cell's in-line undo is re-captured if this is its first touch of
   the epoch); the order is right for several writes to one cell. *)
let undo t entries =
  List.iter (fun (addr, old_value) -> store t ~addr ~value:old_value) entries

let begin_txn t txn =
  Sim_mutex.with_lock t.latch (fun () -> Hashtbl.replace t.txns txn (ref []))

(* Check registration before journaling: a rejected address in the
   journal would make the abort that follows raise before it restored
   the transaction's earlier writes. *)
let write t txn ~addr ~value =
  if not (Hashtbl.mem t.registered addr) then raise (Unregistered_cell addr);
  let old_value = Arena.read t.arena addr in
  Sim_mutex.with_lock t.latch (fun () ->
      let j = journal t txn in
      j := (addr, old_value) :: !j);
  store t ~addr ~value

let commit t txn =
  Sim_mutex.with_lock t.latch (fun () ->
      ignore (close t txn);
      Pmcheck.txn_settled t.arena ~txn)

let rollback t txn =
  undo t (Sim_mutex.with_lock t.latch (fun () -> close t txn));
  Pmcheck.txn_settled t.arena ~txn

let savepoint t txn =
  Sim_mutex.with_lock t.latch (fun () -> List.length !(journal t txn))

(* The journal is newest first: the entries past the savepoint's depth
   are its first [depth - sp]. *)
let rollback_to t txn sp =
  undo t
    (Sim_mutex.with_lock t.latch (fun () ->
         let j = journal t txn in
         let n = List.length !j - sp in
         let undone = List.filteri (fun i _ -> i < n) !j in
         j := List.filteri (fun i _ -> i >= n) !j;
         undone))

let active t = Hashtbl.length t.txns

let advance_quiescent ~span t =
  let n = active t in
  if n > 0 then
    Fmt.invalid_arg
      "Incll.advance_quiescent: %d transaction(s) still in flight — the \
       epoch boundary must be transaction-consistent"
      n;
  span (fun () -> advance t)

let advance_if_quiescent ~span t =
  if active t = 0 then span (fun () -> advance t)
