(* Operation counters for the simulated NVM.  Benchmarks report these next
   to simulated durations; tests use them to assert cost properties such as
   "batched logging issues one fence per [group] records". *)

type t = {
  mutable nvm_writes : int;  (** cacheline-granularity writes that reached NVM *)
  mutable nt_stores : int;   (** non-temporal word stores issued *)
  mutable flushes : int;     (** explicit cacheline write-backs *)
  mutable fences : int;      (** persistent memory fences *)
  mutable loads : int;       (** CPU loads *)
  mutable stores : int;      (** cached CPU stores *)
  mutable crashes : int;     (** simulated crashes *)
  mutable evictions : int;       (** spontaneous dirty-line write-backs (fault model) *)
  mutable crash_survivals : int; (** dirty lines persisted by a partial-eviction crash *)
  mutable media_faults : int;    (** corrupted reads served from media-faulty lines *)
  mutable torn_records : int;    (** bad-checksum log records truncated by recovery *)
  mutable redundant_flushes : int; (** flushes issued on a clean line (no write-back) *)
  mutable redundant_fences : int;  (** fences with no persistence event since the last *)
  mutable inline_records : int; (** log appends as compact records (END words, pairs) *)
  mutable full_records : int;   (** log appends of heap-allocated 64-byte records *)
  mutable group_flushes : int;  (** batch-group persistence points (per log partition) *)
  mutable buckets_recycled : int; (** Batch log buckets reused from the free list *)
  mutable epoch_advances : int; (** durable epoch bumps (InCLL checkpoints) *)
  mutable incll_captures : int; (** first-store-of-epoch in-line undo captures *)
  mutable incll_elided : int;   (** same-epoch repeat stores that needed no undo *)
}

let create () =
  {
    nvm_writes = 0;
    nt_stores = 0;
    flushes = 0;
    fences = 0;
    loads = 0;
    stores = 0;
    crashes = 0;
    evictions = 0;
    crash_survivals = 0;
    media_faults = 0;
    torn_records = 0;
    redundant_flushes = 0;
    redundant_fences = 0;
    inline_records = 0;
    full_records = 0;
    group_flushes = 0;
    buckets_recycled = 0;
    epoch_advances = 0;
    incll_captures = 0;
    incll_elided = 0;
  }

let reset s =
  s.nvm_writes <- 0;
  s.nt_stores <- 0;
  s.flushes <- 0;
  s.fences <- 0;
  s.loads <- 0;
  s.stores <- 0;
  s.crashes <- 0;
  s.evictions <- 0;
  s.crash_survivals <- 0;
  s.media_faults <- 0;
  s.torn_records <- 0;
  s.redundant_flushes <- 0;
  s.redundant_fences <- 0;
  s.inline_records <- 0;
  s.full_records <- 0;
  s.group_flushes <- 0;
  s.buckets_recycled <- 0;
  s.epoch_advances <- 0;
  s.incll_captures <- 0;
  s.incll_elided <- 0

let diff a b =
  {
    nvm_writes = a.nvm_writes - b.nvm_writes;
    nt_stores = a.nt_stores - b.nt_stores;
    flushes = a.flushes - b.flushes;
    fences = a.fences - b.fences;
    loads = a.loads - b.loads;
    stores = a.stores - b.stores;
    crashes = a.crashes - b.crashes;
    evictions = a.evictions - b.evictions;
    crash_survivals = a.crash_survivals - b.crash_survivals;
    media_faults = a.media_faults - b.media_faults;
    torn_records = a.torn_records - b.torn_records;
    redundant_flushes = a.redundant_flushes - b.redundant_flushes;
    redundant_fences = a.redundant_fences - b.redundant_fences;
    inline_records = a.inline_records - b.inline_records;
    full_records = a.full_records - b.full_records;
    group_flushes = a.group_flushes - b.group_flushes;
    buckets_recycled = a.buckets_recycled - b.buckets_recycled;
    epoch_advances = a.epoch_advances - b.epoch_advances;
    incll_captures = a.incll_captures - b.incll_captures;
    incll_elided = a.incll_elided - b.incll_elided;
  }

let snapshot s = { s with nvm_writes = s.nvm_writes }

let add dst src =
  dst.nvm_writes <- dst.nvm_writes + src.nvm_writes;
  dst.nt_stores <- dst.nt_stores + src.nt_stores;
  dst.flushes <- dst.flushes + src.flushes;
  dst.fences <- dst.fences + src.fences;
  dst.loads <- dst.loads + src.loads;
  dst.stores <- dst.stores + src.stores;
  dst.crashes <- dst.crashes + src.crashes;
  dst.evictions <- dst.evictions + src.evictions;
  dst.crash_survivals <- dst.crash_survivals + src.crash_survivals;
  dst.media_faults <- dst.media_faults + src.media_faults;
  dst.torn_records <- dst.torn_records + src.torn_records;
  dst.redundant_flushes <- dst.redundant_flushes + src.redundant_flushes;
  dst.redundant_fences <- dst.redundant_fences + src.redundant_fences;
  dst.inline_records <- dst.inline_records + src.inline_records;
  dst.full_records <- dst.full_records + src.full_records;
  dst.group_flushes <- dst.group_flushes + src.group_flushes;
  dst.buckets_recycled <- dst.buckets_recycled + src.buckets_recycled;
  dst.epoch_advances <- dst.epoch_advances + src.epoch_advances;
  dst.incll_captures <- dst.incll_captures + src.incll_captures;
  dst.incll_elided <- dst.incll_elided + src.incll_elided

(* Counter scope: the counters are cumulative for the arena's lifetime —
   across crashes and reattachments — so code that wants "the NVM work of
   *this* phase" (a benchmark iteration, one recovery pass) must bracket
   it.  Comparing raw totals across a crash double-counts every earlier
   attach cycle's work. *)
let scoped s f =
  let before = snapshot s in
  let v = f () in
  (v, diff s before)

let pp ppf s =
  Fmt.pf ppf "nvm_writes=%d nt=%d flushes=%d fences=%d loads=%d stores=%d"
    s.nvm_writes s.nt_stores s.flushes s.fences s.loads s.stores;
  if s.evictions + s.crash_survivals + s.media_faults + s.torn_records > 0 then
    Fmt.pf ppf " evictions=%d survivals=%d media_faults=%d torn=%d" s.evictions
      s.crash_survivals s.media_faults s.torn_records;
  if s.redundant_flushes + s.redundant_fences > 0 then
    Fmt.pf ppf " redundant_flushes=%d redundant_fences=%d" s.redundant_flushes
      s.redundant_fences;
  if s.inline_records + s.full_records > 0 then
    Fmt.pf ppf " inline_records=%d full_records=%d" s.inline_records
      s.full_records;
  if s.group_flushes > 0 then Fmt.pf ppf " group_flushes=%d" s.group_flushes;
  if s.buckets_recycled > 0 then
    Fmt.pf ppf " buckets_recycled=%d" s.buckets_recycled;
  if s.epoch_advances + s.incll_captures + s.incll_elided > 0 then
    Fmt.pf ppf " epoch_advances=%d incll_captures=%d incll_elided=%d"
      s.epoch_advances s.incll_captures s.incll_elided
