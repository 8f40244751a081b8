(* The persistency sanitizer: an online checker for REWIND's ordering
   discipline.

   It consumes the arena's event trace — raw stores/flushes/fences
   interleaved with the {!Rewind_nvm.Pmcheck} annotations the WAL layers
   emit — and replays it against a shadow ordering model of *real*
   persistent-memory hardware, which is stricter than the simulator: in
   the simulator a written-back line is durable the moment [flush_line]
   runs, so a missing fence costs nothing; on hardware (and in this
   shadow model) a write-back is unordered until the next fence.  The
   sanitizer therefore catches protocol bugs — a dropped fence, a user
   store racing ahead of its undo record — that the simulator's own crash
   machinery can never observe.

   Shadow state, per 8-byte word (the arena's store granularity):

     (absent)       durable and fence-ordered — the safe state
     Volatile       cached store not yet written back; a crash loses it
     Written_back   flushed (or spontaneously evicted) but not yet
                    fence-ordered; durable in the simulator, unordered
                    on hardware

   On top of the word states sit the WAL annotations:

   - [Region_logged] gives a word *coverage*: an undo record exists for
     the enclosing transaction.  Batch coverage starts *pending* (the
     record sits in an unpersisted group) and upgrades at the
     [Group_persisted] of the same log partition — partitions flush
     independently, so pending coverage is keyed by partition and a
     flush in one partition never upgrades another's.  A covered word
     that becomes durable (flush, eviction, or non-temporal store) while
     its coverage is still pending is a WAL-order violation: the user
     store could survive a crash that loses its undo record.
   - Words that have ever had coverage are *tracked*: they are user data
     under transactional management, so a store to one without active
     coverage (outside recovery) is a store-to-unlogged-region
     violation.
   - [Commit_point] regions must be fully durable and fence-ordered by
     the transaction's [Txn_settled]; [Expect_persisted] demands the
     same immediately.
   - [Freed] words reject all stores until re-[Allocated].
   - [Recovery] suspends the unlogged-store rule: repeat-history redo
     legitimately stores to user data with no fresh undo records.

   The epoch protocol (InCLL) has its own vocabulary with different
   rules.  [Epoch_logged] marks a word *epoch-covered*: an undo word in
   the word's own cache line captured its pre-epoch value.  Because undo
   and data share a line — and both the simulator and real hardware
   write lines back atomically — such a word may become durable at any
   time without ordering obligations: whatever line image lands in NVM
   carries either the old data or the data plus its undo, so flushes and
   evictions of epoch-covered words are exempt from the WAL-order rule
   by construction (they carry no WAL coverage at all).  What the epoch
   protocol does demand:

   - a cached store to an epoch-*tracked* word (one that has ever been
     epoch-covered) is a [Store_uncaptured] violation unless the word's
     coverage epoch equals the current epoch — the in-line undo must be
     (re)captured before the first mutation of each epoch;
   - a *non-temporal* store to an epoch-tracked word is an [Epoch_split]
     violation: it would push the data to NVM through the store buffer
     independently of its co-located undo word, forfeiting the
     line-atomicity argument above;
   - at [Epoch_advanced] every epoch-covered word must already be
     durable and fence-ordered (the advance's flush_all/fence precede
     the annotation); all epoch coverage is then superseded.

   Redundant flushes (clean line) and redundant fences (no persistence
   event since the previous fence) are *diagnostics*, not violations:
   counted per site and surfaced in the report. *)

open Rewind_nvm

type kind =
  | Wal_order
  | Unpersisted_commit
  | Unfenced
  | Store_unlogged
  | Store_freed
  | Store_uncaptured
  | Epoch_split
  | Link_unpersisted

let pp_kind ppf k =
  Fmt.string ppf
    (match k with
    | Wal_order -> "wal-order"
    | Unpersisted_commit -> "unpersisted-commit"
    | Unfenced -> "unfenced"
    | Store_unlogged -> "store-unlogged"
    | Store_freed -> "store-freed"
    | Store_uncaptured -> "store-uncaptured"
    | Epoch_split -> "epoch-split"
    | Link_unpersisted -> "link-unpersisted")

type violation = { kind : kind; addr : int; event_no : int; detail : string }

let pp_violation ppf v =
  Fmt.pf ppf "@[<h>[%a] addr=%d event=%d: %s@]" pp_kind v.kind v.addr
    v.event_no v.detail

exception Violation of violation

type mode = Raise | Collect

type word_state = Volatile | Written_back

(* One coverage cell is shared by every word of a logged region, so a
   single [Group_persisted] upgrade flips them all. *)
type coverage = { c_txn : int; mutable c_durable : bool }

type t = {
  arena : Arena.t;
  mode : mode;
  line_bytes : int;
  words : (int, word_state) Hashtbl.t; (* word = addr lsr 3; absent = durable *)
  mutable written_back : int list;
      (* words made Written_back since the last fence, so a fence costs
         what was written back, not the whole table; a word may repeat or
         have turned Volatile again *)
  cover : (int, coverage) Hashtbl.t;
  tracked : (int, unit) Hashtbl.t;
  freed : (int, unit) Hashtbl.t;
  pending_cov : (int, coverage list) Hashtbl.t;
      (* partition -> coverages awaiting that partition's Group_persisted *)
  epoch_cover : (int, int) Hashtbl.t; (* word -> epoch of in-line capture *)
  epoch_tracked : (int, unit) Hashtbl.t;
  mutable cur_epoch : int; (* latest epoch seen in the trace *)
  commit_points : (int, (int * int * string) list ref) Hashtbl.t;
  red_flush : (int, int ref) Hashtbl.t; (* line base -> count *)
  red_fence : (string, int ref) Hashtbl.t; (* preceding-event site -> count *)
  mutable linked_pending : (int * int) list;
      (* CAS-linked (addr, len) ranges awaiting the op's Linked_exposed *)
  mutable last_event : Trace.event option;
      (* formatted only when a redundant fence names it *)
  mutable persisted_since_fence : bool;
  mutable in_recovery : bool;
  mutable events : int;
  mutable violations : violation list; (* Collect mode, newest first *)
}

let violate t kind ~addr detail =
  let v = { kind; addr; event_no = t.events; detail } in
  match t.mode with
  | Raise -> raise (Violation v)
  | Collect -> t.violations <- v :: t.violations

(* Iterate the word indices of [addr, addr+len). *)
let words_of addr len f =
  for w = addr lsr 3 to (addr + len - 1) lsr 3 do
    f w
  done

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> incr c
  | None -> Hashtbl.replace tbl key (ref 1)

(* A word is about to become durable through [how] (flush / eviction /
   non-temporal store): legal unless its undo-record coverage is still
   pending in an unpersisted batch group. *)
let durability_check t w ~how =
  match Hashtbl.find_opt t.cover w with
  | Some c when not c.c_durable ->
      violate t Wal_order ~addr:(w lsl 3)
        (Fmt.str
           "user store became durable via %s before its undo record's batch \
            group persisted (txn %d)"
           how c.c_txn)
  | Some _ | None -> ()

let on_store t ~off ~len ~durable =
  words_of off len (fun w ->
      if Hashtbl.mem t.freed w then
        violate t Store_freed ~addr:(w lsl 3)
          "store to a region already returned to the allocator";
      if
        (not t.in_recovery)
        && Hashtbl.mem t.tracked w
        && not (Hashtbl.mem t.cover w)
      then
        violate t Store_unlogged ~addr:(w lsl 3)
          "store to transactionally-managed data with no active undo record";
      if (not t.in_recovery) && Hashtbl.mem t.epoch_tracked w then
        if durable then
          violate t Epoch_split ~addr:(w lsl 3)
            "non-temporal store to epoch-managed data: the data would reach \
             NVM independently of its co-located in-line undo word"
        else if Hashtbl.find_opt t.epoch_cover w <> Some t.cur_epoch then
          violate t Store_uncaptured ~addr:(w lsl 3)
            (Fmt.str
               "store to epoch-managed data with no in-line undo capture for \
                epoch %d"
               t.cur_epoch);
      if durable then begin
        durability_check t w ~how:"non-temporal store";
        Hashtbl.remove t.words w
      end
      else Hashtbl.replace t.words w Volatile)

(* Write-back of one line: every volatile word of it becomes
   written-back (durable in the simulator, unordered until the fence). *)
let on_writeback t ~base ~how =
  words_of base t.line_bytes (fun w ->
      match Hashtbl.find_opt t.words w with
      | Some Volatile ->
          durability_check t w ~how;
          Hashtbl.replace t.words w Written_back;
          t.written_back <- w :: t.written_back
      | Some Written_back | None -> ())

let pp_last_event ppf = function
  | None -> Fmt.string ppf "(start)"
  | Some ev -> Trace.pp ppf ev

let on_fence t =
  if not t.persisted_since_fence then
    bump t.red_fence (Fmt.str "%a" pp_last_event t.last_event);
  t.persisted_since_fence <- false;
  List.iter
    (fun w ->
      if Hashtbl.find_opt t.words w = Some Written_back then
        Hashtbl.remove t.words w)
    t.written_back;
  t.written_back <- []

(* Check a region that the program claims is durable and fence-ordered. *)
let check_persisted t ~addr ~len ~what ~kind_volatile =
  words_of addr len (fun w ->
      match Hashtbl.find_opt t.words w with
      | None -> ()
      | Some Volatile ->
          violate t kind_volatile ~addr:(w lsl 3)
            (Fmt.str "%s: word still volatile (never written back)" what)
      | Some Written_back ->
          violate t Unfenced ~addr:(w lsl 3)
            (Fmt.str "%s: word written back but not fence-ordered" what))

let on_crash t =
  (* Volatile ordering obligations die with the caches; tracked and freed
     address sets describe durable layout and survive. *)
  Hashtbl.reset t.words;
  t.written_back <- [];
  Hashtbl.reset t.cover;
  Hashtbl.reset t.commit_points;
  Hashtbl.reset t.pending_cov;
  (* Conservative: post-crash recovery advances the epoch, so every
     epoch-managed word must be re-captured before its next store. *)
  Hashtbl.reset t.epoch_cover;
  t.linked_pending <- [];
  t.persisted_since_fence <- false;
  t.in_recovery <- false

let handle t ev =
  t.events <- t.events + 1;
  (match ev with
  | Trace.Store { off; len; durable } ->
      if durable then t.persisted_since_fence <- true;
      on_store t ~off ~len ~durable
  | Trace.Flush { off; dirty } ->
      if dirty then begin
        t.persisted_since_fence <- true;
        on_writeback t ~base:off ~how:"flush"
      end
      else bump t.red_flush (off land lnot (t.line_bytes - 1))
  | Trace.Fence -> on_fence t
  | Trace.Evict { off } ->
      (* Hardware-initiated write-back: durable, never fence-ordered
         until the program's next fence. *)
      on_writeback t ~base:off ~how:"spontaneous eviction"
  | Trace.Pin _ | Trace.Unpin _ -> ()
  | Trace.Crash -> on_crash t
  | Trace.Region_logged { txn; addr; len; durable; group } ->
      let c = { c_txn = txn; c_durable = durable } in
      if not durable then begin
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt t.pending_cov group)
        in
        Hashtbl.replace t.pending_cov group (c :: prev)
      end;
      words_of addr len (fun w ->
          Hashtbl.replace t.cover w c;
          Hashtbl.replace t.tracked w ())
  | Trace.Group_persisted { group } -> (
      (* Only this partition's pending coverage upgrades: with a
         partitioned log, another partition's group flush says nothing
         about records still sitting in this one's unpersisted group. *)
      match Hashtbl.find_opt t.pending_cov group with
      | None -> ()
      | Some l ->
          List.iter (fun c -> c.c_durable <- true) l;
          Hashtbl.remove t.pending_cov group)
  | Trace.Commit_point { txn; addr; len; what } -> (
      match Hashtbl.find_opt t.commit_points txn with
      | Some l -> l := (addr, len, what) :: !l
      | None -> Hashtbl.replace t.commit_points txn (ref [ (addr, len, what) ]))
  | Trace.Txn_settled { txn } ->
      (match Hashtbl.find_opt t.commit_points txn with
      | None -> ()
      | Some l ->
          List.iter
            (fun (addr, len, what) ->
              check_persisted t ~addr ~len
                ~what:(Fmt.str "commit point of txn %d (%s)" txn what)
                ~kind_volatile:Unpersisted_commit)
            !l;
          Hashtbl.remove t.commit_points txn);
      Hashtbl.filter_map_inplace
        (fun _ c -> if c.c_txn = txn then None else Some c)
        t.cover;
      Hashtbl.filter_map_inplace
        (fun _ l ->
          match List.filter (fun c -> c.c_txn <> txn) l with
          | [] -> None
          | l -> Some l)
        t.pending_cov
  | Trace.Expect_persisted { addr; len; what } ->
      check_persisted t ~addr ~len ~what ~kind_volatile:Unpersisted_commit
  | Trace.Recovery true -> t.in_recovery <- true
  | Trace.Recovery false ->
      (* Recovery settles every transaction wholesale. *)
      t.in_recovery <- false;
      Hashtbl.reset t.cover;
      Hashtbl.reset t.commit_points;
      Hashtbl.reset t.pending_cov;
      Hashtbl.reset t.epoch_cover;
      t.linked_pending <- []
  | Trace.Freed { addr; len } ->
      words_of addr len (fun w -> Hashtbl.replace t.freed w ())
  | Trace.Allocated { addr; len } ->
      words_of addr len (fun w -> Hashtbl.remove t.freed w)
  | Trace.Epoch_logged { addr; len; epoch } ->
      t.cur_epoch <- epoch;
      words_of addr len (fun w ->
          Hashtbl.replace t.epoch_cover w epoch;
          Hashtbl.replace t.epoch_tracked w ())
  | Trace.Epoch_advanced { epoch } ->
      Hashtbl.iter
        (fun w _ ->
          check_persisted t ~addr:(w lsl 3) ~len:8
            ~what:(Fmt.str "epoch advance to %d" epoch)
            ~kind_volatile:Unpersisted_commit)
        t.epoch_cover;
      Hashtbl.reset t.epoch_cover;
      t.cur_epoch <- epoch
  | Trace.Linked_durable { addr; len } ->
      (* Third protocol (lock-free linked): the CAS'd link carries no WAL
         or epoch coverage — a crash at any write-back order lands a valid
         set state — but it must be durable before the op's result is
         exposed.  Enrol it for the check at the next [Linked_exposed]. *)
      t.linked_pending <- (addr, len) :: t.linked_pending
  | Trace.Linked_exposed { what } ->
      List.iter
        (fun (addr, len) ->
          check_persisted t ~addr ~len
            ~what:(Fmt.str "lock-free link of %s" what)
            ~kind_volatile:Link_unpersisted)
        t.linked_pending;
      t.linked_pending <- []
  (* Synchronization vocabulary: consumed by the race detector, carries
     no persistency-ordering information. *)
  | Trace.Load _ | Trace.Acquire _ | Trace.Release _ | Trace.Atomic_rmw _
  | Trace.Fiber_spawn _ | Trace.Fiber_switch _ | Trace.Fiber_join _ ->
      ());
  t.last_event <- Some ev

let attach ?(mode = Raise) arena =
  let t =
    {
      arena;
      mode;
      line_bytes = (Arena.config arena).Config.cacheline_bytes;
      words = Hashtbl.create 1024;
      written_back = [];
      cover = Hashtbl.create 256;
      tracked = Hashtbl.create 256;
      freed = Hashtbl.create 256;
      pending_cov = Hashtbl.create 8;
      epoch_cover = Hashtbl.create 256;
      epoch_tracked = Hashtbl.create 256;
      cur_epoch = 0;
      commit_points = Hashtbl.create 16;
      red_flush = Hashtbl.create 64;
      red_fence = Hashtbl.create 64;
      linked_pending = [];
      last_event = None;
      persisted_since_fence = false;
      in_recovery = false;
      events = 0;
      violations = [];
    }
  in
  Arena.set_tracer arena (Some (handle t));
  t

let detach t = Arena.set_tracer t.arena None

let with_sanitizer ?mode arena f =
  let s = attach ?mode arena in
  Fun.protect ~finally:(fun () -> detach s) (fun () -> f s)

let violations t = List.rev t.violations
let events_seen t = t.events

(* -- diagnostics report -------------------------------------------------- *)

type report = {
  events : int;
  violation_count : int;
  redundant_flush_sites : (int * int) list; (* line base, count *)
  redundant_fence_sites : (string * int) list; (* preceding event, count *)
}

let report t =
  let flushes =
    Hashtbl.fold (fun base c acc -> (base, !c) :: acc) t.red_flush []
    |> List.sort compare
  in
  let fences =
    Hashtbl.fold (fun site c acc -> (site, !c) :: acc) t.red_fence []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    events = t.events;
    violation_count = List.length t.violations;
    redundant_flush_sites = flushes;
    redundant_fence_sites = fences;
  }

let pp_report ppf r =
  Fmt.pf ppf "@[<v>events traced: %d@,violations: %d@," r.events
    r.violation_count;
  let rf = List.fold_left (fun a (_, c) -> a + c) 0 r.redundant_flush_sites in
  let fn = List.fold_left (fun a (_, c) -> a + c) 0 r.redundant_fence_sites in
  Fmt.pf ppf "redundant flushes: %d over %d lines@," rf
    (List.length r.redundant_flush_sites);
  List.iter
    (fun (base, c) -> Fmt.pf ppf "  line @%d: %d clean flushes@," base c)
    r.redundant_flush_sites;
  Fmt.pf ppf "redundant fences: %d over %d sites" fn
    (List.length r.redundant_fence_sites);
  List.iter
    (fun (site, c) -> Fmt.pf ppf "@,  after %s: %d empty fences" site c)
    r.redundant_fence_sites;
  Fmt.pf ppf "@]"
