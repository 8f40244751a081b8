(** Operation counters for the simulated NVM: benchmarks report them next
    to simulated durations; tests assert cost properties with them (e.g.
    "batched logging issues one fence per group"). *)

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

val create : unit -> t
val reset : t -> unit
val diff : t -> t -> t
val snapshot : t -> t

val add : t -> t -> unit
(** [add dst src] accumulates [src]'s counters into [dst]. *)

val scoped : t -> (unit -> 'a) -> 'a * t
(** [scoped s f] runs [f] and returns its result together with the
    counter delta it caused.  The counters are cumulative for the arena's
    lifetime — across crashes and reattachments — so any "NVM work of
    this phase" question must be asked through a scope like this one;
    comparing raw totals across a crash double-counts every earlier
    attach cycle's work. *)

val pp : t Fmt.t
