(* The Atomic AVL Tree (AAVLT, Section 3.4): the two-layer configuration's
   top layer.  It indexes log records by transaction id so that selective
   rollback does not need a linear log scan, and it doubles as the
   persistently-maintained transaction table of the two-layer scheme
   (status, last record, undo-next per transaction).

   Atomicity: every NVM write that affects the tree's *reachable* state is
   routed through [logged_write], which first appends a physical
   old/new-value record (with the reserved internal transaction id 0) to
   the underlying bucket log, then performs the write with a non-temporal
   store.  A tree operation runs as:

       writes... -> internal END record -> clear internal records (END last)

   Only one tree operation is ever pending (tree updates are serialized by
   the transaction manager), so recovery is a simplified one-transaction
   scheme: if the internal log holds records *without* an END, the
   operation was cut short — undo it by replaying old values backwards,
   which is idempotent under repeated crashes because the restored values
   do not depend on current state.  If an END is present the operation
   completed and only the clearing is re-run, END removed last (the force
   clearing discipline of Section 4.6).

   Node de-allocation is deferred until the operation's records are
   cleared, mirroring the paper's delayed de-allocation rule. *)

open Rewind_nvm

let internal_txn = 0

(* Node layout: eight words, one cacheline. *)
let node_bytes = 64
let k_key = 0
let k_left = 8
let k_right = 16
let k_height = 24
let k_head_record = 32
let k_status = 40
let k_undo_next = 48

let null = 0

type t = {
  arena : Arena.t;
  alloc : Alloc.t;
  ilog : Log.t;          (* the bottom layer: an Optimized bucket log *)
  root_ptr : int;        (* NVM word holding the tree root *)
  mutable deferred_free : int list;  (* nodes to free once the op clears *)
  mutable op_handles : Log.handle list;  (* this op's internal records *)
}

let create alloc ~ilog =
  let arena = Alloc.arena alloc in
  let root_ptr = Alloc.alloc_fresh ~align:64 alloc 8 in
  { arena; alloc; ilog; root_ptr; deferred_free = []; op_handles = [] }

let attach alloc ~ilog ~root_ptr =
  {
    arena = Alloc.arena alloc;
    alloc;
    ilog;
    root_ptr;
    deferred_free = [];
    op_handles = [];
  }

let root_ptr t = t.root_ptr
let rd t off = Int64.to_int (Arena.read t.arena off)

(* Tree descents chase pointers: charge one cache miss per visited node. *)
let charge_visit t = Clock.advance (Arena.config t.arena).Config.read_miss_ns

(* -- the write-ahead discipline for tree updates ----------------------- *)

(* Internal records (txn 0, lsn 0, no chains) are prime inline-encoding
   candidates: node fields — heights, statuses, small pointers — usually
   fit the compact format, so most tree maintenance costs no record
   allocation.  [Log.append_record] hands the fields to [Log.form], the
   one form decision, which falls back to a full record when an image
   exceeds the 36-bit internal payload. *)
let logged_write t addr v =
  let old_v = Arena.read t.arena addr in
  if old_v <> Int64.of_int v then begin
    let h =
      Log.append_record t.ilog ~lsn:0 ~txn:internal_txn ~typ:Record.Update
        ~addr ~old_value:old_v ~new_value:(Int64.of_int v) ~undo_next:0
    in
    t.op_handles <- h :: t.op_handles;
    Arena.nt_write t.arena addr (Int64.of_int v)
  end

let is_internal t r = Record.txn t.arena r = internal_txn

(* Clear this operation's internal records through their handles — O(1)
   per record, non-END first, END last.  [op_handles] is newest-first, so
   the END (appended last) is at the head. *)
let clear_internal_handles t ~end_handle =
  List.iter (fun h -> Log.remove_handle t.ilog h) (List.rev t.op_handles);
  Log.remove_handle t.ilog end_handle;
  t.op_handles <- []

(* Run [f] as one atomic tree operation. *)
let op t f =
  t.deferred_free <- [];
  t.op_handles <- [];
  let result = f () in
  let end_handle =
    Log.append_record ~is_end:true t.ilog ~lsn:0 ~txn:internal_txn
      ~typ:Record.End ~addr:0 ~old_value:0L ~new_value:0L ~undo_next:0
  in
  clear_internal_handles t ~end_handle;
  List.iter (fun n -> Alloc.free ~align:64 t.alloc n node_bytes) t.deferred_free;
  t.deferred_free <- [];
  result

(* Post-crash: undo or finish-clearing the single pending operation. *)
let recover t =
  let records = ref [] in
  let has_end = ref false in
  Log.iter t.ilog (fun r ->
      if is_internal t r then begin
        records := r :: !records;
        if Record.typ t.arena r = Record.End then has_end := true
      end);
  if !records <> [] && not !has_end then
    (* [records] is already newest-first: physical undo, backwards. *)
    List.iter
      (fun r ->
        if Record.typ t.arena r = Record.Update then
          Arena.nt_write t.arena (Record.addr t.arena r)
            (Record.old_value t.arena r))
      !records;
  (* no handle survives the crash: clear by scanning *)
  Log.remove_end_last t.ilog (is_internal t)

(* -- plain node accessors (reads are unlogged) -------------------------- *)

let key t n = rd t (n + k_key)
let left t n = rd t (n + k_left)
let right t n = rd t (n + k_right)
let height t n = if n = null then 0 else rd t (n + k_height)
let head_record t n = rd t (n + k_head_record)
let status t n = rd t (n + k_status)
let undo_next t n = rd t (n + k_undo_next)

(* Fields of a transaction entry; logged because they are reachable
   state that an interrupted operation must be able to roll back. *)
let set_head_record t n r = logged_write t (n + k_head_record) r
let set_status t n s = logged_write t (n + k_status) s
let set_undo_next t n r = logged_write t (n + k_undo_next) r

(* -- AVL mechanics ------------------------------------------------------ *)

(* A new node is written with non-temporal stores *without* logging: it is
   unreachable until a logged child-pointer write links it, so an undone
   operation simply leaks it. *)
let new_node t k =
  let n = Alloc.alloc ~align:64 t.alloc node_bytes in
  let w off v = Arena.nt_write t.arena (n + off) (Int64.of_int v) in
  w k_key k;
  w k_left null;
  w k_right null;
  w k_height 1;
  w k_head_record null;
  w k_status 0;
  w k_undo_next null;
  n

let set_left t n v = logged_write t (n + k_left) v
let set_right t n v = logged_write t (n + k_right) v
let set_height t n v = logged_write t (n + k_height) v

let update_height t n =
  let h = 1 + max (height t (left t n)) (height t (right t n)) in
  if height t n <> h then set_height t n h

let balance_factor t n = height t (left t n) - height t (right t n)

let rotate_right t n =
  let l = left t n in
  let lr = right t l in
  set_left t n lr;
  set_right t l n;
  update_height t n;
  update_height t l;
  l

let rotate_left t n =
  let r = right t n in
  let rl = left t r in
  set_right t n rl;
  set_left t r n;
  update_height t n;
  update_height t r;
  r

let rebalance t n =
  update_height t n;
  let bf = balance_factor t n in
  if bf > 1 then begin
    if balance_factor t (left t n) < 0 then set_left t n (rotate_left t (left t n));
    rotate_right t n
  end
  else if bf < -1 then begin
    if balance_factor t (right t n) > 0 then
      set_right t n (rotate_right t (right t n));
    rotate_left t n
  end
  else n

let find t k =
  let rec go n =
    if n = null then null
    else begin
      charge_visit t;
      let nk = key t n in
      if k = nk then n else if k < nk then go (left t n) else go (right t n)
    end
  in
  go (rd t t.root_ptr)

let mem t k = find t k <> null

(* Insert inside an [op]; returns the node for [k] (existing or new). *)
let insert_in_op t k =
  let found = ref null in
  let rec go n =
    if n = null then begin
      let fresh = new_node t k in
      found := fresh;
      fresh
    end
    else begin
      charge_visit t;
      let nk = key t n in
      if k = nk then begin
        found := n;
        n
      end
      else begin
        if k < nk then begin
          let l' = go (left t n) in
          if left t n <> l' then set_left t n l'
        end
        else begin
          let r' = go (right t n) in
          if right t n <> r' then set_right t n r'
        end;
        rebalance t n
      end
    end
  in
  let root = rd t t.root_ptr in
  let root' = go root in
  if root' <> root then logged_write t t.root_ptr root';
  !found

let insert t k = op t (fun () -> insert_in_op t k)

(* Delete inside an [op].  Standard AVL removal; the unlinked node is
   queued on [deferred_free]. *)
let remove_in_op t k =
  let removed = ref false in
  let rec min_node n = if left t n = null then n else min_node (left t n) in
  let rec go n =
    if n = null then null
    else begin
      charge_visit t;
      let nk = key t n in
      if k < nk then begin
        let l' = go (left t n) in
        if left t n <> l' then set_left t n l';
        rebalance t n
      end
      else if k > nk then begin
        let r' = go (right t n) in
        if right t n <> r' then set_right t n r';
        rebalance t n
      end
      else begin
        removed := true;
        let l = left t n and r = right t n in
        if l = null || r = null then begin
          t.deferred_free <- n :: t.deferred_free;
          if l = null then r else l
        end
        else begin
          (* Two children: move the successor's payload into [n], then
             delete the successor from the right subtree. *)
          let s = min_node r in
          logged_write t (n + k_key) (key t s);
          set_head_record t n (head_record t s);
          set_status t n (status t s);
          set_undo_next t n (undo_next t s);
          let rec del_min m =
            if left t m = null then begin
              t.deferred_free <- m :: t.deferred_free;
              right t m
            end
            else begin
              let l' = del_min (left t m) in
              if left t m <> l' then set_left t m l';
              rebalance t m
            end
          in
          let r' = del_min r in
          if right t n <> r' then set_right t n r';
          rebalance t n
        end
      end
    end
  in
  let root = rd t t.root_ptr in
  let root' = go root in
  if root' <> root then logged_write t t.root_ptr root';
  !removed

let remove t k = op t (fun () -> remove_in_op t k)

(* -- traversal ---------------------------------------------------------- *)

let iter t f =
  let rec go n =
    if n <> null then begin
      charge_visit t;
      go (left t n);
      f n;
      go (right t n)
    end
  in
  go (rd t t.root_ptr)

(* Wholesale clearing: one logged root swing makes the tree durably empty,
   then the node memory is returned to the allocator (volatile book-keeping
   only, as in the paper's three-step log clearing). *)
let clear t =
  let nodes = ref [] in
  iter t (fun n -> nodes := n :: !nodes);
  op t (fun () -> logged_write t t.root_ptr null);
  List.iter (fun n -> Alloc.free ~align:64 t.alloc n node_bytes) !nodes

let size t =
  let n = ref 0 in
  iter t (fun _ -> incr n);
  !n

let keys t =
  let acc = ref [] in
  iter t (fun n -> acc := key t n :: !acc);
  List.rev !acc

(* AVL invariant check for tests. *)
let well_formed t =
  let ok = ref true in
  let rec check n lo hi =
    if n = null then 0
    else begin
      let k = key t n in
      (match lo with Some l when k <= l -> ok := false | _ -> ());
      (match hi with Some h when k >= h -> ok := false | _ -> ());
      let hl = check (left t n) lo (Some k) in
      let hr = check (right t n) (Some k) hi in
      if abs (hl - hr) > 1 then ok := false;
      if height t n <> 1 + max hl hr then ok := false;
      1 + max hl hr
    end
  in
  ignore (check (rd t t.root_ptr) None None);
  !ok
