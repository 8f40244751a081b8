(* The recoverable log (Section 3) in its three implementations:

   - [Simple]: log records are elements of the ADLL directly; every append
     is a full atomic list insertion (several non-temporal stores and
     fences).
   - [Optimized]: the hybrid layout of Section 3.3 — fixed-size buckets
     (arrays of record-pointer slots) chained through the ADLL.  Inserting
     a record is one non-temporal slot store plus a fence; buckets are
     appended to the ADLL only when the current one fills.
   - [Batch _]: Optimized plus batched persistence.  Slot stores are
     cached; every [group] records (or at an END record, or when a bucket
     fills) the pending slot lines are written back, one fence is issued,
     and the bucket's "last persistent index" word is updated with a
     non-temporal store.  Recovery trusts only slots up to that index.
     A group counts records, whatever their width: a full record, an END
     word and a pair each count one, and the flush covers every slot
     they occupy.

   Record removal (log clearing) tombstones a slot with a single atomic
   word store; a bucket is unlinked from the ADLL when it empties.  Bucket
   occupancy and the insert cursor are volatile and reconstructed during
   the analysis phase after a crash, exactly as in the paper.

   Every forward scan of a bucket — iteration, clearing, freeing,
   occupancy counts, compaction and [attach]'s truncating pass — is one
   walk, [walk_slots], over the buckets [iter_buckets] hands it; only
   [iter_back_handles] walks backwards.  [remove_end_last] is the one
   two-pass clearing that leaves END records for last.

   Bucket memory follows each variant's trust rule (Section 4.3: never
   hand out space recovery could still need).  A Batch bucket trusts
   only the slots below its last-persistent-index, so [new_bucket] takes
   a freed bucket when there is one and stores 0 into that index before
   linking it; its stale slots are then never read.  An Optimized bucket
   trusts every non-zero slot and always takes fresh, durably zero
   memory.  Batch buckets are padded to whole lines, since a group flush
   writes back whole lines.

   Each bucket also keeps a volatile maximum LSN, noted at append from
   the LSN the caller already holds.  A full bucket whose maximum lies
   below the caller's durable horizon holds nothing recovery reads, so
   [unlink_below] drops it whole with one crash-atomic ADLL removal
   instead of tombstoning its slots (Sections 3.3 and 4.6).  Buckets
   rebuilt by [attach] or [compact], and appends made without an LSN,
   are unknown and never unlinked this way.

   Slot values: 0 = never used, 1 = tombstone (cleared record), low three
   bits 2 = an END word, 6/7 = the first/second word of an inline record
   pair (see {!Record}), otherwise the NVM address of a full log record.

   The compact forms are the bucketed variants' fast path.  A commit's
   END is one slot word, so an insert is the one word write of
   Section 3.3; a word-sized UPDATE or CLR is a pair of adjacent slots.
   Either way an Optimized append costs one line write-back plus one
   fence (a pair that straddles a line pays a second write-back) instead
   of a record line write-back, a fence, a slot store and its ordering.
   A pair never straddles a bucket boundary, and under Batch the
   last-persistent-index store happens only in [flush_group], after both
   words — so the trust rule can never expose half a pair.  A reachable
   pair whose second word is untrusted or fails its CRC, or an END word
   that fails its CRC, is a torn record: [attach] truncates it exactly
   like a bad-checksum full record.  [walk_slots] hands a compact record
   to its caller with its width (1 or 2 slots). *)

open Rewind_nvm

type variant = Simple | Optimized | Batch of int

let pp_variant ppf = function
  | Simple -> Fmt.string ppf "Simple"
  | Optimized -> Fmt.string ppf "Optimized"
  | Batch g -> Fmt.pf ppf "Batch(%d)" g

let tombstone = 1

(* The maximum LSN of a bucket that has taken an append without one:
   never below any horizon. *)
let unknown_lsn = max_int

(* Bucket layout: word 0 = last persistent index (count of trusted slots),
   words 1..cap = slots. *)
let b_idx = 0
let slot_off b i = b + 8 + (8 * i)

(* Volatile per-bucket state: the bucket, the ADLL node holding it, its
   position in the chain (buckets linked later have larger [seq]), its
   live records, and the largest LSN appended to it. *)
type cell = {
  bucket : int;
  node : int;
  seq : int;
  mutable live : int;
  mutable max_lsn : int;
}

type t = {
  variant : variant;
  bucket_cap : int;
  alloc : Alloc.t;
  arena : Arena.t;
  root_slot : int;
  mutable chain : Adll.t;  (* of records (Simple) or of buckets *)
  (* volatile cursor (bucketed variants) *)
  mutable cur : cell;
      (* the current bucket's cell (bucket 0 when none), held here so the
         append/clear hot path skips the [cells] hash lookup *)
  mutable next_slot : int;   (* next free slot index in the current bucket *)
  mutable pending : int;     (* slots appended since the last persist point *)
  mutable grouped : int;     (* records appended since the last persist point *)
  cells : (int, cell) Hashtbl.t;  (* bucket -> its volatile cell *)
  mutable linked : int;  (* buckets linked so far: the next cell's [seq] *)
  mutable inline_ok : bool;  (* inline-pair encoding enabled (default) *)
  mutable inline_appended : int;  (* appends that took the inline path *)
  mutable appended : int;  (* total records ever appended (stat) *)
  mutable torn : int;  (* bad-checksum records truncated by the last attach *)
  mutable chaos_drop_group_fence : bool;
      (* test-only fault: skip the group-persistence fence, leaving the
         batch slots written back but unordered — the bug class the
         persistency sanitizer exists to catch *)
  mutable group_tag : int;
      (* partition id stamped on this log's sanitizer annotations: each
         partition's batch groups flush independently, so Group_persisted
         events must say which partition's pending coverage upgrades *)
}

(* A bucket's memory.  A Batch group flush writes back whole lines, so a
   Batch bucket owns every line it spans: were its last line shared, the
   flush would also write back a neighbour's word — a user store whose
   undo record is still in an open group, breaking write-ahead order.
   An Optimized record is durable before its data store, so its buckets
   need no padding. *)
let bucket_bytes t =
  let bytes = 8 * (1 + t.bucket_cap) in
  match t.variant with
  | Batch _ -> (bytes + 63) land lnot 63
  | Optimized | Simple -> bytes

let variant t = t.variant
let arena t = t.arena
let set_group_tag t g = t.group_tag <- g

let rd t off = Int64.to_int (Arena.read t.arena off)
let wr_nt t off v = Arena.nt_write t.arena off (Int64.of_int v)

(* Memory-locality charges for log scans: bucket slots are sequential and
   prefetch-friendly; Simple-variant nodes are chased through pointers. *)
let charge_seq t = Clock.advance (Arena.config t.arena).Config.read_seq_ns
let charge_miss t = Clock.advance (Arena.config t.arena).Config.read_miss_ns

(* The cell of no bucket, until the first one exists. *)
let no_cell () =
  { bucket = 0; node = 0; seq = -1; live = 0; max_lsn = unknown_lsn }

let bucketed t =
  match t.variant with Simple -> false | Optimized | Batch _ -> true

(* The volatile cell of bucket [b], linked as [node] after every bucket
   the log has cells for. *)
let add_cell t b node ~live ~max_lsn =
  let c = { bucket = b; node; seq = t.linked; live; max_lsn } in
  t.linked <- t.linked + 1;
  Hashtbl.replace t.cells b c;
  c

(* A Batch bucket trusts only the slots below its durable
   last-persistent-index, so a freed bucket is reused once that index is
   durably 0 (Section 4.3's rule: recovery needs none of its stale
   slots).  The non-temporal store is ordered before the bucket becomes
   reachable by the fence [Adll.append] issues before publishing
   [toAppend].  An Optimized bucket trusts every non-zero slot, so reuse
   would first zero all of them: 126 line writes per 1000-slot bucket,
   measured at +5.9 % lines per op and a five-fold p99.9 on the suite's
   [recover] workload.  It takes fresh memory, durably zero by
   construction. *)
let new_bucket t =
  let bytes = bucket_bytes t in
  let recycled =
    match t.variant with
    | Batch _ -> Alloc.alloc_recycled ~align:64 t.alloc bytes
    | Optimized | Simple -> None
  in
  let b =
    match recycled with
    | Some b ->
        wr_nt t (b + b_idx) 0;
        let s = Arena.stats t.arena in
        s.Stats.buckets_recycled <- s.Stats.buckets_recycled + 1;
        b
    | None -> Alloc.alloc_fresh ~align:64 t.alloc bytes
  in
  let node = Adll.append t.chain b in
  t.cur <- add_cell t b node ~live:0 ~max_lsn:min_int;
  t.next_slot <- 0

(* A log over [chain] with no cursor yet: what [create] and [attach]
   start from. *)
let make variant bucket_cap alloc ~root_slot chain =
  {
    variant;
    bucket_cap;
    alloc;
    arena = Alloc.arena alloc;
    root_slot;
    chain;
    cur = no_cell ();
    next_slot = 0;
    pending = 0;
    grouped = 0;
    cells = Hashtbl.create 64;
    linked = 0;
    inline_ok = true;
    inline_appended = 0;
    appended = 0;
    torn = 0;
    chaos_drop_group_fence = false;
    group_tag = 0;
  }

(* The atomic switch to the current chain: one durable root update. *)
let set_root t =
  Arena.root_set t.arena t.root_slot (Int64.of_int (Adll.base t.chain))

let create variant ?(bucket_cap = 1000) alloc ~root_slot =
  let t = make variant bucket_cap alloc ~root_slot (Adll.create alloc) in
  set_root t;
  if bucketed t then new_bucket t;
  t

(* Install a fresh, empty chain (with its first bucket) and reset the
   cursor, for [clear_all] and [compact]; the caller swings the root. *)
let reset_chain t =
  t.chain <- Adll.create t.alloc;
  Hashtbl.reset t.cells;
  t.next_slot <- 0;
  t.pending <- 0;
  t.grouped <- 0;
  if bucketed t then new_bucket t

let set_chaos_drop_group_fence t b = t.chaos_drop_group_fence <- b

(* -- persistence of pending batch slots -------------------------------- *)

(* Write back the pending slot lines, fence once, and advance the durable
   last-persistent-index with a non-temporal store (Section 3.3). *)
let flush_group t =
  match t.variant with
  | Batch _ when t.pending > 0 ->
      let first = slot_off t.cur.bucket (t.next_slot - t.pending) in
      let len = 8 * t.pending in
      Arena.flush_range t.arena first len;
      if not t.chaos_drop_group_fence then Arena.fence t.arena;
      (* The protocol's claim at this point (Section 3.3): every slot of
         the group is durable and fence-ordered before the
         last-persistent-index store makes them trusted. *)
      Pmcheck.expect_persisted t.arena ~addr:first ~len
        ~what:"batch group slots before last-persistent-index advance";
      wr_nt t (t.cur.bucket + b_idx) t.next_slot;
      (let s = Arena.stats t.arena in
       s.Stats.group_flushes <- s.Stats.group_flushes + 1);
      Pmcheck.group_persisted ~group:t.group_tag t.arena;
      t.pending <- 0;
      t.grouped <- 0
  | _ -> ()

(* -- append ------------------------------------------------------------ *)

(* Add one record of [width] slots to the open Batch group; a full group,
   or [force], persists it. *)
let add_to_group t ~group ~width ~force =
  t.pending <- t.pending + width;
  t.grouped <- t.grouped + 1;
  if force || t.grouped >= group then flush_group t

(* Count one more live record in the current bucket, appended with [lsn]
   ({!unknown_lsn} when the appender has none). *)
let note_append t ~lsn =
  let c = t.cur in
  c.live <- c.live + 1;
  if lsn > c.max_lsn then c.max_lsn <- lsn

let append_slot t r ~lsn ~force_persist =
  if t.next_slot >= t.bucket_cap then begin
    flush_group t;
    new_bucket t
  end;
  let b = t.cur.bucket in
  let i = t.next_slot in
  t.next_slot <- i + 1;
  note_append t ~lsn;
  (match t.variant with
  | Simple -> assert false
  | Optimized ->
      (* Fence to persist the record fields (Section 4.2), then one atomic,
         synchronous non-temporal store makes the record part of the log. *)
      Arena.fence t.arena;
      wr_nt t (slot_off b i) r
  | Batch group ->
      (* No per-record fence: the slot store stays cached until the group
         persistence point. *)
      Arena.write t.arena (slot_off b i) (Int64.of_int r);
      add_to_group t ~group ~width:1 ~force:force_persist);
  (b, i)

(* Store a compact record — an END word ([width] 1, [w1] unused) or an
   inline pair ([width] 2) — into the next slots (raw words, no counters —
   shared by [put] and compaction's re-append).  A pair never
   straddles a bucket boundary: with one slot left we roll to a new
   bucket and the orphan slot is never written.  An Optimized bucket is
   fresh, so the slot stays durably zero, which every scan skips; a
   Batch bucket's last-persistent-index never covers it, so its stale
   word is never read. *)
let put_compact t ~width w0 w1 ~lsn ~force_persist =
  if t.next_slot + width > t.bucket_cap then begin
    flush_group t;
    new_bucket t
  end;
  let b = t.cur.bucket in
  let i = t.next_slot in
  t.next_slot <- i + width;
  note_append t ~lsn;
  let off = slot_off b i in
  let last = off + (8 * (width - 1)) in
  Arena.write t.arena off (Int64.of_int w0);
  if width = 2 then Arena.write t.arena last (Int64.of_int w1);
  (match t.variant with
  | Simple -> assert false
  | Optimized ->
      (* The words *are* the record: one write-back (two when a pair
         straddles a line — slot parity is not fixed), one fence.  No
         off-line record line, no separate slot ordering. *)
      Arena.flush_line t.arena off;
      if last lsr 6 <> off lsr 6 then Arena.flush_line t.arena last;
      Arena.fence t.arena;
      Pmcheck.expect_persisted t.arena ~addr:off ~len:(8 * width)
        ~what:"inline record"
  | Batch group ->
      (* The words stay cached; [flush_group] persists them and only then
         advances the last-persistent-index, so trusted slots never cut a
         pair in half. *)
      add_to_group t ~group ~width ~force:force_persist);
  (b, i)

(* A handle names the exact location of an appended record, letting its
   owner remove it later in O(1) (the AAVLT clears its own records this
   way after every tree operation). *)
type handle = Node of int | Slot of { node : int; bucket : int; slot : int }

(* A record in the form the log stores it: the words of a compact record
   ([width] 1 for an END word, 2 for a pair) or a full record's address.
   [lsn] is the bucket maximum its append notes ({!unknown_lsn} for none);
   [txn] names a compact END's commit point. *)
type record =
  | Compact of { width : int; w0 : int; w1 : int; txn : int; lsn : int }
  | Full of { r : int; lsn : int }

let full ?(lsn = unknown_lsn) r = Full { r; lsn }

(* The one form decision, made outside any latch: an END word when the
   record is a payload-free END whose fields fit it, else an inline pair
   when it fits the compact format, else an off-line 64-byte record.
   Only bucketed logs whose buckets hold a pair take the compact forms.
   The choice is invisible to readers — all come back as record refs
   that the {!Record} accessors decode.  The AAVLT's internal records
   (txn 0) carry no LSN, so they leave their bucket's maximum unknown. *)
let form t ~lsn ~txn ~typ ~addr ~old_value ~new_value ~undo_next =
  let max_lsn = if txn = 0 then unknown_lsn else lsn in
  let compact = t.inline_ok && t.bucket_cap >= 2 && bucketed t in
  match
    if compact then
      Record.word_encode ~lsn ~txn ~typ ~addr ~old_value ~new_value ~undo_next
    else None
  with
  | Some w -> Compact { width = 1; w0 = w; w1 = 0; txn; lsn = max_lsn }
  | None -> (
      match
        if compact then
          Record.inline_encode ~lsn ~txn ~typ ~addr ~old_value ~new_value
            ~undo_next
        else None
      with
      | Some (w0, w1) -> Compact { width = 2; w0; w1; txn; lsn = max_lsn }
      | None ->
          let r =
            Record.make t.alloc ~lsn ~txn ~typ ~addr ~old_value ~new_value
              ~undo_next ~prev_same_txn:0
          in
          Full { r; lsn = max_lsn })

(* Store a formed record, under the caller's latch.  [is_end] marks an
   END record, which forces the pending batch group and is its
   transaction's commit point: the record and the word that makes it
   reachable must be durable when commit returns.  (Txn 0 is the AAVLT's
   internal logging — its records are cleared within the enclosing
   atomic op, not at a transaction boundary.) *)
let put ?(is_end = false) t record =
  t.appended <- t.appended + 1;
  let s = Arena.stats t.arena in
  match record with
  | Compact { width; w0; w1; txn; lsn } ->
      t.inline_appended <- t.inline_appended + 1;
      s.Stats.inline_records <- s.Stats.inline_records + 1;
      let b, i = put_compact t ~width w0 w1 ~lsn ~force_persist:is_end in
      if is_end && txn <> 0 && Arena.traced t.arena then
        Pmcheck.commit_point t.arena ~txn ~addr:(slot_off b i)
          ~len:(8 * width) ~what:"END inline record";
      Slot { node = t.cur.node; bucket = b; slot = i }
  | Full { r; lsn } ->
      s.Stats.full_records <- s.Stats.full_records + 1;
      let h =
        match t.variant with
        | Simple ->
            (* The record was written back by [Record.make]; fence to order
               it before the list insertion that makes it reachable. *)
            Arena.fence t.arena;
            Node (Adll.append t.chain r)
        | Optimized | Batch _ ->
            let b, i = append_slot t r ~lsn ~force_persist:is_end in
            Slot { node = t.cur.node; bucket = b; slot = i }
      in
      (if is_end && Arena.traced t.arena then
         let txn = Record.txn t.arena r in
         if txn <> 0 then begin
           Pmcheck.commit_point t.arena ~txn ~addr:r ~len:Record.size_bytes
             ~what:"END record";
           match h with
           | Node _ -> ()
           | Slot { bucket; slot; _ } ->
               Pmcheck.commit_point t.arena ~txn
                 ~addr:(slot_off bucket slot) ~len:8 ~what:"END slot"
         end);
      h

let append_record ?is_end t ~lsn ~txn ~typ ~addr ~old_value ~new_value
    ~undo_next =
  put ?is_end t (form t ~lsn ~txn ~typ ~addr ~old_value ~new_value ~undo_next)

let set_inline t b = t.inline_ok <- b
let inline_appended t = t.inline_appended

let appended t = t.appended
let torn_truncated t = t.torn

(* Slots appended but not yet persisted (Batch only; 0 otherwise). *)
let pending t = t.pending

(* -- traversal --------------------------------------------------------- *)

(* The slots of the trusted compact record whose first word [v] sits at
   slot [i] (NVM offset [off]): 1 for an END word whose CRC matches, 2 for
   a pair whose partner word is inside [bound] and whose CRC matches, 0
   for any other word. *)
let compact_width t ~off ~i ~bound v =
  if Record.end_word_valid v then 1
  else if
    Record.is_inline_first_word v
    && i + 1 < bound
    && Record.inline_pair_valid ~w0:v ~w1:(rd t (off + 8))
  then 2
  else 0

(* A full-record slot word a scan may dereference.  A slot or list
   element should only ever hold 0, the tombstone, an inline tag word, or
   a plausible record address ({!Record.plausible}) — anything else is
   corruption caught before a scan dereferences it.  A media-faulty slot
   line serves garbage on {e every} read (truncation cannot stick), so
   scans must classify defensively, not just [attach].  A tagged compact
   word has non-zero low bits, so it is never a plausible address. *)
let live_record t v =
  v > tombstone && Record.plausible t.arena v

(* Number of slots of [b] that iteration may trust.  The log only ever
   stores a Batch last-persistent-index in [0, cap]; any other value is a
   corrupt read of the bucket's header line (a media fault), and then no
   slot is trusted.  Clamping it to the capacity instead would expose a
   recycled bucket's stale slots: copies of live records that a
   compaction moved, and addresses of freed records whose memory now
   holds live ones, which recovery would replay and free twice. *)
let durable_bound t b =
  match t.variant with
  | Batch _ ->
      let i = rd t (b + b_idx) in
      if i >= 0 && i <= t.bucket_cap then i else 0
  | Optimized | Simple -> t.bucket_cap

let bucket_bound t b =
  if b = t.cur.bucket then t.next_slot else durable_bound t b

(* [f node b bound] for every bucket [b] of the chain, oldest first, with
   the number of its slots a scan may trust. *)
let iter_buckets t f =
  Adll.iter t.chain (fun node ->
      let b = Adll.element t.chain node in
      f node b (bucket_bound t b))

(* The one forward walk over the first [bound] slots of bucket [b]; with
   [seq], each step is charged as a sequential read.
   A trusted compact record goes to [compact i off w0 width], its first
   word already read, and covers [width] slots (1 for an END word, 2 for
   a pair).  Any other word goes to [word i off v], which returns how many
   slots it consumed: more than one only when it read ahead itself. *)
let walk_slots ?(seq = false) t b ~bound ~compact ~word =
  let i = ref 0 in
  while !i < bound do
    if seq then charge_seq t;
    let off = slot_off b !i in
    let v = rd t off in
    let width = compact_width t ~off ~i:!i ~bound v in
    if width > 0 then begin
      compact !i off v width;
      i := !i + width
    end
    else i := !i + word !i off v
  done

let iter t f =
  match t.variant with
  | Simple ->
      Adll.iter t.chain (fun n ->
          charge_miss t;
          f (Adll.element t.chain n))
  | Optimized | Batch _ ->
      iter_buckets t (fun _ b bound ->
          walk_slots ~seq:true t b ~bound
            ~compact:(fun _ off _ width ->
              (* a compact record decodes from the slot line already read *)
              f (Record.inline_ref ~width off))
            ~word:(fun _ _ v ->
              if live_record t v then begin
                (* examining a full record touches its own cacheline *)
                charge_miss t;
                f v
              end;
              1))

exception Stop

(* The one backward walk: [f h r] for every live record [r], newest first,
   with [h] its handle, until [f] returns [false].  Rollback and
   force-policy clearing of one transaction use it to stop at that
   transaction's first record. *)
let iter_back_handles t f =
  let visit h r = if not (f h r) then raise Stop in
  try
    match t.variant with
    | Simple ->
        Adll.iter_back t.chain (fun n ->
            charge_miss t;
            visit (Node n) (Adll.element t.chain n))
    | Optimized | Batch _ ->
        Adll.iter_back t.chain (fun node ->
            let b = Adll.element t.chain node in
            let bound = bucket_bound t b in
            let slot i = Slot { node; bucket = b; slot = i } in
            let i = ref (bound - 1) in
            while !i >= 0 do
              charge_seq t;
              let off = slot_off b !i in
              let v = rd t off in
              let off1 = slot_off b (!i - 1) in
              if Record.end_word_valid v then begin
                visit (slot !i) (Record.inline_ref ~width:1 off);
                decr i
              end
              else if
                Record.is_inline_second_word v
                && !i > 0
                && compact_width t ~off:off1 ~i:(!i - 1) ~bound (rd t off1) = 2
              then begin
                visit (slot (!i - 1)) (Record.inline_ref ~width:2 off1);
                i := !i - 2
              end
              else begin
                if live_record t v then begin
                  charge_miss t;
                  visit (slot !i) v
                end;
                decr i
              end
            done)
  with Stop -> ()

let iter_back t f =
  iter_back_handles t (fun _ r ->
      f r;
      true)

let length t =
  let n = ref 0 in
  iter t (fun _ -> incr n);
  !n

let records t =
  let acc = ref [] in
  iter t (fun r -> acc := r :: !acc);
  List.rev !acc

(* -- removal (log clearing) -------------------------------------------- *)

let free_bucket t b node =
  Adll.remove t.chain node;
  Hashtbl.remove t.cells b;
  Alloc.free ~align:64 t.alloc b (bucket_bytes t)

(* Tombstone every record satisfying [pred]; free the record memory; unlink
   buckets that become empty.  Each tombstone is one atomic word store, so a
   crash at any point leaves a well-formed log with a subset of the removals
   applied (Section 4.6). *)
let remove_where t pred =
  match t.variant with
  | Simple ->
      let victims = ref [] in
      Adll.iter t.chain (fun n ->
          if pred (Adll.element t.chain n) then victims := n :: !victims);
      (* oldest first, once the walk is done *)
      List.iter
        (fun n ->
          let r = Adll.element t.chain n in
          Adll.remove t.chain n;
          Record.free t.alloc r)
        (List.rev !victims)
  | Optimized | Batch _ ->
      let empty = ref [] in
      iter_buckets t (fun node b bound ->
          let survivors = ref 0 in
          walk_slots ~seq:true t b ~bound
            ~compact:(fun _ off _ width ->
              if pred (Record.inline_ref ~width off) then begin
                (* first word first: a crash in between leaves a stray
                   second word, which [attach] tombstones *)
                wr_nt t off tombstone;
                if width = 2 then wr_nt t (off + 8) tombstone
              end
              else incr survivors)
            ~word:(fun _ off v ->
              (if live_record t v then
                 if pred v then begin
                   wr_nt t off tombstone;
                   Record.free t.alloc v
                 end
                 else incr survivors);
              1);
          (* The scan classified every slot, so re-derive the bucket's
             occupancy absolutely: the volatile cell is re-synced even if
             it had drifted.  The cell is updated in place, so the current
             bucket's [cur] stays the same object. *)
          (Hashtbl.find t.cells b).live <- !survivors;
          if !survivors = 0 && b <> t.cur.bucket then
            empty := (b, node) :: !empty);
      List.iter (fun (b, node) -> free_bucket t b node) !empty

(* Remove the records matching [pred], END records last, so that an
   interrupted clearing is re-attempted identically after a crash
   (Section 4.6). *)
let remove_end_last t pred =
  remove_where t (fun r -> pred r && Record.typ t.arena r <> Record.End);
  remove_where t (fun r -> pred r && Record.typ t.arena r = Record.End)

(* Tombstone the record at handle [h] with one atomic word store per
   slot, a pair's first word first, and free a full record's memory —
   exactly the stores of scan-based clearing.  Returns the cell of the
   bucket a record left, its count already lowered. *)
let take_handle t h =
  match h with
  | Node n ->
      let r = Adll.element t.chain n in
      Adll.remove t.chain n;
      Record.free t.alloc r;
      None
  | Slot { bucket; slot; _ } -> (
      let off = slot_off bucket slot in
      let v = rd t off in
      let removed =
        if Record.is_inline_first_word v || Record.is_end_word v then begin
          wr_nt t off tombstone;
          if Record.is_inline_first_word v then wr_nt t (off + 8) tombstone;
          true
        end
        else if live_record t v then begin
          wr_nt t off tombstone;
          Record.free t.alloc v;
          true
        end
        else false
      in
      match if removed then Hashtbl.find_opt t.cells bucket else None with
      | Some c ->
          c.live <- c.live - 1;
          Some c
      | None -> None)

let idle t (c : cell) = c.live = 0 && c.bucket <> t.cur.bucket

(* O(1) removal through a handle returned by [put]; the bucket goes as
   soon as it empties. *)
let remove_handle t h =
  match take_handle t h with
  | Some c when idle t c -> free_bucket t c.bucket c.node
  | Some _ | None -> ()

(* One [remove_where] pass over just the records at [hs]: tombstone them
   in the given order, then free every empty bucket other than the
   current one, newest first, as the pass's scan would — those just
   emptied, and any that emptied while it was the current one. *)
let remove_handles t hs =
  List.iter (fun h -> ignore (take_handle t h)) hs;
  Hashtbl.fold (fun _ c acc -> if idle t c then c :: acc else acc) t.cells []
  |> List.sort (fun (a : cell) b -> compare b.seq a.seq)
  |> List.iter (fun c -> free_bucket t c.bucket c.node)

(* Free the full records among the first [bound] slots of [b], then [b]
   itself — volatile free-list operations only.  Compact records live in
   the bucket: nothing to free. *)
let release_bucket t b ~bound =
  walk_slots t b ~bound
    ~compact:(fun _ _ _ _ -> ())
    ~word:(fun _ _ v ->
      if live_record t v then Record.free t.alloc v;
      1);
  Alloc.free ~align:64 t.alloc b (bucket_bytes t)

(* Unlink every bucket other than the current one whose maximum LSN lies
   below [h], in chain order, with one crash-atomic ADLL removal each
   (Section 3.3): no tombstones, no slot scan.  The caller's durable
   horizon makes every such record invisible to recovery, so a crash
   between two removals leaves a log recovery reads correctly.  The
   buckets come back still allocated, for {!reclaim}. *)
let unlink_below t h =
  match t.variant with
  | Simple -> []
  | Optimized | Batch _ ->
      let dead =
        Hashtbl.fold
          (fun b c acc ->
            if b <> t.cur.bucket && c.max_lsn < h then c :: acc
            else acc)
          t.cells []
        |> List.sort (fun (a : cell) b -> compare a.seq b.seq)
      in
      List.iter
        (fun c ->
          Adll.remove t.chain c.node;
          Hashtbl.remove t.cells c.bucket)
        dead;
      List.map (fun c -> c.bucket) dead

(* Free what {!unlink_below} handed back.  The buckets are unreachable,
   so this needs no latch. *)
let reclaim t buckets =
  List.iter (fun b -> release_bucket t b ~bound:(durable_bound t b)) buckets

(* Clear the whole log in the paper's three steps: remember the old chain,
   install a new one, then de-allocate the old (Section 4.5). *)
let clear_all t =
  let old_chain = t.chain in
  (* Capture the volatile cursor *before* the swap: the old current
     bucket of a Batch log can hold appended-but-unflushed slots past its
     durable last-persistent-index, and their records must be freed too. *)
  let old_cur = t.cur.bucket and old_next_slot = t.next_slot in
  reset_chain t;
  set_root t;
  (* De-allocate the old log wholesale — volatile free-list operations only. *)
  (match t.variant with
  | Simple ->
      Adll.iter old_chain (fun n -> Record.free t.alloc (Adll.element old_chain n))
  | Optimized | Batch _ ->
      Adll.iter old_chain (fun node ->
          let b = Adll.element old_chain node in
          let bound =
            if b = old_cur then old_next_slot else durable_bound t b
          in
          release_bucket t b ~bound));
  Adll.free_structure old_chain

(* -- compaction --------------------------------------------------------- *)

(* Live records and total trusted slots, for the occupancy test. *)
let occupancy_stats t =
  match t.variant with
  | Simple ->
      let n = Adll.length t.chain in
      (n, n)
  | Optimized | Batch _ ->
      let live = ref 0 and slots = ref 0 in
      iter_buckets t (fun _ b bound ->
          slots := !slots + bound;
          walk_slots t b ~bound
            ~compact:(fun _ _ _ width -> live := !live + width)
            ~word:(fun _ _ v ->
              if live_record t v then incr live;
              1));
      (!live, !slots)

(* Section 3.3's compaction: when tombstone gaps (e.g. left by the records
   of long-running transactions spanning otherwise-empty buckets) push
   occupancy below [threshold], build a new log, copy the live records
   over, and atomically swing the root to the new head bucket.  A crash
   during compaction leaves the old log intact (the root moves last), so
   recovery sees a consistent — merely uncompacted — log. *)
let compact ?(threshold = 0.5) t =
  let live, slots = occupancy_stats t in
  if slots > 0 && float_of_int live < threshold *. float_of_int slots then begin
    match t.variant with
    | Simple -> ()  (* node-per-record: removal leaves no gaps *)
    | Optimized | Batch _ ->
        let old_chain = t.chain in
        (* Collect survivors preserving their representation: a full
           record moves by address, a compact record by its raw words
           (their CRC is position-independent). *)
        let survivors = ref [] in
        iter_buckets t (fun _ b bound ->
            walk_slots t b ~bound
              ~compact:(fun _ off w0 width ->
                let w1 = if width = 2 then rd t (off + 8) else 0 in
                survivors := `Compact (width, w0, w1) :: !survivors)
              ~word:(fun _ _ v ->
                if live_record t v then survivors := `Full v :: !survivors;
                1));
        (* build the new log off-line *)
        reset_chain t;
        List.iter
          (function
            | `Full r ->
                ignore
                  (append_slot t r ~lsn:unknown_lsn ~force_persist:false)
            | `Compact (width, w0, w1) ->
                ignore
                  (put_compact t ~width w0 w1 ~lsn:unknown_lsn
                     ~force_persist:false))
          (List.rev !survivors);
        (* even with no survivor, the new current bucket is rebuilt *)
        t.cur.max_lsn <- unknown_lsn;
        flush_group t;
        set_root t;
        (* de-allocate the old structure (volatile bookkeeping only; the
           records themselves moved, not their memory) *)
        Adll.iter old_chain (fun node ->
            Alloc.free ~align:64 t.alloc
              (Adll.element old_chain node)
              (bucket_bytes t));
        Adll.free_structure old_chain
  end

(* The buckets in chain order, the current one last (tests). *)
let buckets t =
  match t.variant with
  | Simple -> []
  | Optimized | Batch _ -> Adll.elements t.chain

(* -- volatile-cache invariant check (tests) ----------------------------- *)

(* [f b cached actual] for every bucket [b], with its volatile live count
   ([min_int] when it has no cell) and a recount from the durable
   layout. *)
let recount t f =
  match t.variant with
  | Simple -> ()
  | Optimized | Batch _ ->
      iter_buckets t (fun _ b bound ->
          let actual = ref 0 in
          walk_slots t b ~bound
            ~compact:(fun _ _ _ _ -> incr actual)
            ~word:(fun _ _ v ->
              if live_record t v then incr actual;
              1);
          let cached =
            match Hashtbl.find_opt t.cells b with
            | Some c -> c.live
            | None -> min_int
          in
          f b cached !actual)

(* Recount every bucket's live records from the durable layout and compare
   with the volatile cells and the current [cur].  Returns the
   mismatches; the regression tests assert it is empty after any
   interleaving of appends, clears, checkpoints and compactions. *)
let check_occupancy t =
  let bad = ref [] in
  recount t (fun b cached actual ->
      if cached <> actual then bad := (b, cached, actual) :: !bad;
      if b = t.cur.bucket && cached <> t.cur.live then
        bad := (b, t.cur.live, actual) :: !bad);
  !bad

(* The buckets other than the current one that hold no live record, in
   chain order (tests). *)
let idle_buckets t =
  let idle = ref [] in
  recount t (fun b _ actual ->
      if actual = 0 && b <> t.cur.bucket then idle := b :: !idle);
  List.rev !idle

(* -- post-crash attachment --------------------------------------------- *)

(* A record that failed its integrity check during analysis: count it as
   a torn write. *)
let count_torn t =
  t.torn <- t.torn + 1;
  let s = Arena.stats t.arena in
  s.Stats.torn_records <- s.Stats.torn_records + 1

(* Reconstruct the volatile cursor and occupancy from the durable image:
   recover the ADLL itself, then scan the buckets, counting live slots and
   locating the insertion point in the last bucket (the paper's analysis-
   phase reconstruction of Section 3.3).  Every reachable record is
   checked with {!Record.intact} first: a record that fails is a torn
   write (or media corruption) and is truncated out of the log —
   tombstoned in its slot, or unlinked from the Simple chain — instead of
   being replayed as garbage. *)
let attach variant ?(bucket_cap = 1000) alloc ~root_slot =
  let base = Int64.to_int (Arena.root_get (Alloc.arena alloc) root_slot) in
  if base = 0 then create variant ~bucket_cap alloc ~root_slot
  else begin
    let chain = Adll.attach alloc ~base in
    Adll.recover chain;
    let t = make variant bucket_cap alloc ~root_slot chain in
    let intact r = Record.intact t.arena r || (count_torn t; false) in
    (match variant with
    | Simple ->
        (* Unlink torn records from the chain.  Their memory is leaked —
           a crash already leaks all volatile free lists, so recovery-time
           truncation leaks nothing extra worth tracking. *)
        let bad = ref [] in
        Adll.iter chain (fun node ->
            if not (intact (Adll.element chain node)) then
              bad := node :: !bad);
        List.iter (fun node -> Adll.remove chain node) !bad
    | Optimized | Batch _ ->
        iter_buckets t (fun node b bound ->
            let occ = ref 0 in
            let last_used = ref (-1) in
            (* Truncate a compact word that cannot be trusted — the
               analogue of a bad-CRC record. *)
            let truncate_inline off =
              wr_nt t off tombstone;
              count_torn t
            in
            walk_slots t b ~bound
              ~compact:(fun i _ _ width ->
                incr occ;
                last_used := i + width - 1)
              ~word:(fun i off v ->
                if Record.is_inline_first_word v then begin
                  (* torn pair: the second word is beyond the trusted
                     bound, lost to the crash, or CRC-mismatched *)
                  truncate_inline off;
                  last_used := i;
                  (* consume a leftover second word as part of the same
                     tear, not a second one *)
                  if
                    i + 1 < bound
                    && Record.is_inline_second_word (rd t (off + 8))
                  then begin
                    wr_nt t (off + 8) tombstone;
                    last_used := i + 1;
                    2
                  end
                  else 1
                end
                else begin
                  if Record.is_inline_second_word v then
                    (* stray second word — its first was lost to a torn
                       append or already tombstoned by an interrupted
                       removal *)
                    truncate_inline off
                  else if v > tombstone then begin
                    if intact v then incr occ
                    else
                      (* torn write: truncate the record out of the log
                         (an END word whose CRC fails lands here too: it
                         is no plausible record address) *)
                      wr_nt t off tombstone
                  end;
                  if v >= tombstone then last_used := i;
                  1
                end);
            t.cur <- add_cell t b node ~live:!occ ~max_lsn:unknown_lsn;
            t.next_slot <-
              (match variant with
              | Batch _ -> bound
              | Optimized | Simple -> !last_used + 1));
        if t.cur.bucket = 0 then new_bucket t;
        t.cur.max_lsn <- unknown_lsn);
    t
  end
