(* A durable lock-free hash set — the raw-speed contender for REWIND's
   latched structures (Zuriel et al. style, with NVTraverse's
   flush-on-traversal-exit and a detectable-recovery announcement layer).

   Shape: a fixed bucket directory over Harris-style sorted linked lists.
   A node is logically deleted by setting the mark bit (LSB) of its own
   next word; physical unlinking is a separate best-effort CAS that any
   traversal may help complete.  There are no latches and no WAL — every
   pointer update is a single-word CAS through {!Sim_atomic}, so the race
   detector sees each link's synchronisation chain.

   Durability protocol (link-and-persist + nt-init):

   - A node's payload (key, next) is initialised with non-temporal
     stores *before* the CAS that publishes it, so the durable image can
     never contain a link to an uninitialised node: if the link's
     write-back survived a crash, the nt stores — earlier persistence
     events — certainly did.
   - Every link CAS uses [Sim_atomic.compare_and_set_word ~persist:true],
     which flushes the CAS'd line inside the same atomic bracket
     (link-and-persist).  A successful operation fences once and only
     then exposes its result, so a completed op's links are durable —
     durable linearizability, announced to the sanitizer via
     {!Pmcheck.linked_exposed}.
   - Read-only traversals flush their dependency set on exit
     (NVTraverse): the last link followed and the found node's next
     word, then fence.

   Detectability: each thread owns one durable 64-byte announcement cell
   (seq, op, key, status, node).  The cell is persisted *before* the op
   mutates anything, and the target node's address is nt-written into it
   before the decisive CAS — so after a crash, {!op_took_effect} can tell
   from the durable image alone whether the in-flight op's CAS landed:
   an insert took effect iff its node is reachable (or was already
   marked by a later remove); a remove took effect iff its victim's next
   word carries the mark bit.

   Recovery is a pure node scan: walk every bucket, physically unlink
   any marked node, fence.  No log replay — the structure's durable
   state *is* its recovered state. *)

open Rewind_nvm

let node_bytes = 16
let o_key = 0
let o_next = 8

(* Announcement cell field offsets (one 64 B line per thread). *)
let a_seq = 0
let a_op = 8
let a_key = 16
let a_status = 24
let a_node = 32

let op_insert = 1
let op_remove = 2

let magic = 0x4C (* 'L' *)

exception Mismatch of string

type t = {
  arena : Arena.t;
  alloc : Alloc.t;
  base : int; (* header line *)
  nbuckets : int;
  nthreads : int;
  seqs : int array; (* next announcement sequence number, per thread *)
}

let round64 n = (n + 63) land lnot 63
let buckets_off t = t.base + 64
let cell t thread = t.base + 64 + round64 (8 * t.nbuckets) + (64 * thread)

let bucket_of t k =
  let h = (k * 2654435761) land max_int in
  buckets_off t + (8 * (h mod t.nbuckets))

(* -- mark-bit plumbing --------------------------------------------------- *)

let is_marked w = Int64.logand w 1L = 1L
let addr_of w = Int64.to_int (Int64.logand w (Int64.lognot 1L))
let of_addr a = Int64.of_int a
let marked w = Int64.logor w 1L
let key_of t n = Int64.to_int (Arena.read t.arena (n + o_key))

(* -- lifecycle ----------------------------------------------------------- *)

let header_word ~nbuckets ~nthreads =
  Int64.of_int (magic lor (nbuckets lsl 8) lor (nthreads lsl 32))

let create ?(nbuckets = 64) ?(nthreads = 8) alloc =
  if nbuckets < 1 || nbuckets > 1 lsl 20 then invalid_arg "Lfset.create";
  if nthreads < 1 || nthreads > 256 then invalid_arg "Lfset.create";
  let arena = Alloc.arena alloc in
  let size = 64 + round64 (8 * nbuckets) + (64 * nthreads) in
  let base = Alloc.alloc_fresh ~align:64 alloc size in
  (* The bucket directory and announcement cells rely on alloc_fresh's
     durably-zero guarantee; only the header needs an explicit store. *)
  Arena.nt_write arena base (header_word ~nbuckets ~nthreads);
  Arena.fence arena;
  { arena; alloc; base; nbuckets; nthreads; seqs = Array.make nthreads 0 }

(* Post-crash scan: physically unlink every marked node, persist the
   repaired links, fence once if any was written back.  Marked-but-linked
   is the only transient state the protocol can leave behind — a
   completed remove whose best-effort unlink CAS (or its write-back) did
   not survive. *)
let recover_chains t =
  Pmcheck.recovery_begin t.arena;
  for b = 0 to t.nbuckets - 1 do
    let head = buckets_off t + (8 * b) in
    let rec sweep prev =
      let curr = addr_of (Arena.read t.arena prev) in
      if curr <> 0 then begin
        let nw = Arena.read t.arena (curr + o_next) in
        if is_marked nw then begin
          Arena.write t.arena prev (of_addr (addr_of nw));
          Arena.flush_line t.arena prev;
          sweep prev
        end
        else sweep (curr + o_next)
      end
    in
    sweep head
  done;
  Arena.fence_if_needed t.arena;
  Pmcheck.recovery_end t.arena

let attach alloc ~base =
  let arena = Alloc.arena alloc in
  let hdr = Int64.to_int (Arena.read arena base) in
  if hdr = 0 then
    raise
      (Mismatch
         (Fmt.str "Lfset.attach: no set header at offset %d (never created?)"
            base));
  if hdr land 0xff <> magic then
    raise
      (Mismatch
         (Fmt.str "Lfset.attach: bad magic %#x at offset %d (expected %#x)"
            (hdr land 0xff) base magic));
  let nbuckets = (hdr lsr 8) land 0xffffff in
  let nthreads = (hdr lsr 32) land 0xffff in
  let t = { arena; alloc; base; nbuckets; nthreads; seqs = Array.make nthreads 0 } in
  (* Resume each thread's announcement sequence past the durable one. *)
  for i = 0 to nthreads - 1 do
    t.seqs.(i) <- Int64.to_int (Arena.read arena (cell t i + a_seq))
  done;
  recover_chains t;
  t

let base t = t.base
let nbuckets t = t.nbuckets
let nthreads t = t.nthreads

(* -- traversal ----------------------------------------------------------- *)

(* [search t k] returns [(prev, curr)]: [curr] is 0 or the first unmarked
   node with key >= [k], and [prev] is the link word that points at it.
   Marked nodes encountered on the way are helped out of the list with an
   annotated link-and-persist CAS; a failed help restarts the search. *)
let rec search t k =
  let rec advance prev curr =
    if curr = 0 then (prev, 0)
    else
      let nw = Sim_atomic.read_word t.arena (curr + o_next) in
      if is_marked nw then begin
        Pmcheck.linked_durable t.arena ~addr:prev ~len:8;
        Sim_threads.yield ();
        if
          Sim_atomic.compare_and_set_word ~persist:true t.arena prev
            ~expected:(of_addr curr)
            ~desired:(of_addr (addr_of nw))
        then advance prev (addr_of nw)
        else search t k
      end
      else if key_of t curr >= k then (prev, curr)
      else advance (curr + o_next) (addr_of nw)
  in
  let head = bucket_of t k in
  advance head (addr_of (Sim_atomic.read_word t.arena head))

(* -- announcements ------------------------------------------------------- *)

let announce_begin t ~thread ~op ~key =
  if thread < 0 || thread >= t.nthreads then invalid_arg "Lfset: bad thread";
  let c = cell t thread in
  let seq = t.seqs.(thread) + 1 in
  t.seqs.(thread) <- seq;
  Arena.write t.arena (c + a_status) 0L;
  Arena.write t.arena (c + a_node) 0L;
  Arena.write t.arena (c + a_op) (Int64.of_int op);
  Arena.write t.arena (c + a_key) (Int64.of_int key);
  Arena.write t.arena (c + a_seq) (Int64.of_int seq);
  (* One line, one flush: the cell either survives whole (op announced,
     in progress) or not at all (previous op's completed announcement) —
     both are legal recovery states. *)
  Arena.flush_line t.arena c;
  Arena.fence t.arena

(* Durably record the op's target node before the decisive CAS, so a
   post-crash [op_took_effect] knows which node to test. *)
let announce_target t ~thread node =
  Arena.nt_write t.arena (cell t thread + a_node) (of_addr node)

let announce_done t ~thread ~what result =
  (* Order every link flushed during the op (including help-unlinks)
     before the result becomes observable... *)
  Arena.fence t.arena;
  Pmcheck.linked_exposed t.arena ~what;
  (* ...then durably record completion. *)
  let c = cell t thread in
  Arena.write t.arena (c + a_status) (if result then 1L else 2L);
  Arena.flush_line t.arena c;
  Arena.fence t.arena;
  result

(* -- operations ---------------------------------------------------------- *)

let rec insert_impl t ~thread k =
  let prev, curr = search t k in
  if curr <> 0 && key_of t curr = k then begin
    (* Present: persist the link this answer depends on
       (flush-on-traversal-exit) and report failure. *)
    Pmcheck.linked_durable t.arena ~addr:prev ~len:8;
    Arena.flush_line t.arena prev;
    false
  end
  else begin
    (* Fresh never-reused storage, initialised with non-temporal stores
       *before* the publishing CAS: a surviving link implies a durable
       node.  A failed CAS abandons the node — nodes are never recycled,
       so recovery can trust every reachable address. *)
    let node = Alloc.alloc_fresh ~align:16 t.alloc node_bytes in
    Pmcheck.linked_durable t.arena ~addr:node ~len:node_bytes;
    Arena.nt_write t.arena (node + o_key) (Int64.of_int k);
    Arena.nt_write t.arena (node + o_next) (of_addr curr);
    announce_target t ~thread node;
    Pmcheck.linked_durable t.arena ~addr:prev ~len:8;
    Sim_threads.yield ();
    if
      Sim_atomic.compare_and_set_word ~persist:true t.arena prev
        ~expected:(of_addr curr) ~desired:(of_addr node)
    then true
    else insert_impl t ~thread k
  end

and remove_impl t ~thread k =
  let prev, curr = search t k in
  if curr = 0 || key_of t curr <> k then begin
    Pmcheck.linked_durable t.arena ~addr:prev ~len:8;
    Arena.flush_line t.arena prev;
    false
  end
  else begin
    announce_target t ~thread curr;
    let nw = Sim_atomic.read_word t.arena (curr + o_next) in
    if is_marked nw then remove_impl t ~thread k
    else begin
      (* Logical delete: mark the victim's own next word (the
         linearization + durability point)... *)
      Pmcheck.linked_durable t.arena ~addr:(curr + o_next) ~len:8;
      Sim_threads.yield ();
      if
        not
          (Sim_atomic.compare_and_set_word ~persist:true t.arena
             (curr + o_next) ~expected:nw ~desired:(marked nw))
      then remove_impl t ~thread k
      else begin
        (* ...then best-effort physical unlink; helpers or recovery
           finish it if this CAS loses. *)
        Pmcheck.linked_durable t.arena ~addr:prev ~len:8;
        ignore
          (Sim_atomic.compare_and_set_word ~persist:true t.arena prev
             ~expected:(of_addr curr)
             ~desired:(of_addr (addr_of nw)));
        true
      end
    end
  end

let insert ?(thread = 0) t k =
  announce_begin t ~thread ~op:op_insert ~key:k;
  let r = insert_impl t ~thread k in
  announce_done t ~thread ~what:(Fmt.str "insert %d" k) r

let remove ?(thread = 0) t k =
  announce_begin t ~thread ~op:op_remove ~key:k;
  let r = remove_impl t ~thread k in
  announce_done t ~thread ~what:(Fmt.str "remove %d" k) r

(* Read-only lookup: no helping, no CAS.  Marked nodes are skipped
   (NVTraverse-style wait-free traversal); on exit the dependency set —
   the last link followed and the decisive node's next word — is flushed
   and fenced, so the answer is justified by the durable image. *)
let mem t k =
  let head = bucket_of t k in
  let rec go link curr =
    if curr = 0 then (link, 0)
    else
      let nw = Sim_atomic.read_word t.arena (curr + o_next) in
      if is_marked nw then go link (addr_of nw)
      else if key_of t curr >= k then (link, curr)
      else go (curr + o_next) (addr_of nw)
  in
  let link, curr = go head (addr_of (Sim_atomic.read_word t.arena head)) in
  Arena.flush_line t.arena link;
  if curr <> 0 then Arena.flush_line t.arena (curr + o_next);
  Arena.fence t.arena;
  curr <> 0 && key_of t curr = k

(* -- whole-set inspection (quiescent callers: tests, recovery checks) ---- *)

let iter t f =
  for b = 0 to t.nbuckets - 1 do
    let rec go curr =
      if curr <> 0 then begin
        let nw = Arena.read t.arena (curr + o_next) in
        if not (is_marked nw) then f (key_of t curr);
        go (addr_of nw)
      end
    in
    go (addr_of (Arena.read t.arena (buckets_off t + (8 * b))))
  done

let bindings t =
  let acc = ref [] in
  iter t (fun k -> acc := k :: !acc);
  List.sort compare !acc

let size t =
  let n = ref 0 in
  iter t (fun _ -> incr n);
  !n

(* -- detectability ------------------------------------------------------- *)

type status = In_progress | Done of bool

type announcement = {
  an_seq : int;
  an_op : [ `Insert | `Remove ];
  an_key : int;
  an_status : status;
  an_node : int;
}

let announcement t ~thread =
  if thread < 0 || thread >= t.nthreads then invalid_arg "Lfset: bad thread";
  let c = cell t thread in
  let rd o = Int64.to_int (Arena.read t.arena (c + o)) in
  if rd a_seq = 0 then None
  else
    Some
      {
        an_seq = rd a_seq;
        an_op = (if rd a_op = op_remove then `Remove else `Insert);
        an_key = rd a_key;
        an_status =
          (match rd a_status with
          | 0 -> In_progress
          | 1 -> Done true
          | _ -> Done false);
        an_node = rd a_node;
      }

let reachable t ~key ~node =
  let rec go curr =
    curr <> 0 && (curr = node || go (addr_of (Arena.read t.arena (curr + o_next))))
  in
  go (addr_of (Arena.read t.arena (bucket_of t key)))

(* Post-crash effect oracle: did the announced op's decisive CAS land in
   the durable image?  [None] when the thread never announced an op. *)
let op_took_effect t ~thread =
  match announcement t ~thread with
  | None -> None
  | Some { an_status = Done r; _ } -> Some r
  | Some { an_status = In_progress; an_node = 0; _ } ->
      (* Crashed before reaching the decisive CAS. *)
      Some false
  | Some { an_status = In_progress; an_op; an_key; an_node; _ } -> (
      let nw = Arena.read t.arena (an_node + o_next) in
      match an_op with
      | `Insert ->
          (* Linked iff reachable; marked covers the window where a
             concurrent remove already logically deleted it. *)
          Some (reachable t ~key:an_key ~node:an_node || is_marked nw)
      | `Remove -> Some (is_marked nw))
