(** Simulated byte-addressable NVM with an explicit write-back cache.

    An arena holds two images: the durable NVM contents and the volatile CPU
    view (NVM plus dirty cachelines).  Cached stores become durable only via
    {!flush_line}/{!flush_all}; {!nt_write} is durable immediately.  {!crash}
    discards every dirty line, modelling a power failure.

    Each write that reaches NVM charges the cost model's write latency to
    {!Clock}, merging consecutive writes to one cacheline.
    {!fence} charges the fence latency and breaks write-combining.

    Both images are stored in fixed 64 KiB chunks, materialised on the
    first store, pin or {!corrupt} to each; an untouched chunk reads as
    zeros and costs nothing.  {!create} is O(size / 64 KiB), and
    {!crash}, {!flush_all}, {!capture} and {!materialize} visit only the
    chunks a run touched, always in ascending line order, so they cost
    what the run touched rather than the arena's size.  The cacheline
    size must be a power of two no larger than 64 KiB. *)

type t

exception Crash
(** Raised by an armed arena (see {!arm_crash}) when the crash point is hit.
    The arena has already transitioned to its post-crash state. *)

val create : ?config:Config.t -> size_bytes:int -> unit -> t
val size : t -> int
val config : t -> Config.t
val stats : t -> Stats.t

(** {1 Loads and cached stores} *)

val read : t -> int -> int64
(** [read t off] loads the word at byte offset [off] (volatile view). *)

val write : t -> int -> int64 -> unit
(** [write t off v] is a cached store: volatile until its line is flushed.
    An unaligned word that spans two cachelines dirties both. *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit
val read_bytes : t -> int -> int -> string
val write_bytes : t -> int -> string -> unit

(** {1 Durable stores} *)

val nt_write : t -> int -> int64 -> unit
(** Non-temporal store: durable on arrival, one persistence event. *)

val flush_line : t -> int -> unit
(** Write back the cacheline containing the offset, if dirty. *)

val flush_range : t -> int -> int -> unit

val flush_all : ?share:int * int -> t -> unit
(** Write back every dirty line in ascending line order; costs the dirty
    lines, not the arena's size.  [~share:(k, n)] writes back only the
    dirty lines whose line index is [k] mod [n], so the [n] shares of one
    dirty set write each line back exactly once between them; the default
    [(0, 1)] is every line.  Raises [Invalid_argument] unless
    [0 <= k < n]. *)

val fence : t -> unit
(** Persistent memory fence: orders and charges [fence_ns]. *)

val fence_if_needed : t -> unit
(** {!fence}, unless no write-back or non-temporal store has happened
    since the last fence: such a fence would order nothing. *)

val persist : t -> int -> int -> unit
(** [persist t off len] flushes the range and fences. *)

(** {1 Crash simulation} *)

val crash : t -> unit
(** Discard all dirty lines; only durable state remains visible.  Under an
    attached {!Fault_model}, each dirty line instead survives
    independently with the model's per-line probability (the
    partial-eviction adversary), rolled in ascending line order.  Costs
    the chunks holding a dirty or pinned line, not the arena's size. *)

val arm_crash : t -> after:int -> unit
(** Make the [after]+1-th persistence event (non-temporal store or dirty-line
    flush) raise {!Crash} instead of taking effect. *)

val disarm_crash : t -> unit
val crashed : t -> bool
val clear_crashed : t -> unit

(** {1 Fault injection}

    An attached {!Fault_model} turns the arena adversarial: partial
    cacheline survival at crash, spontaneous clean-capacity evictions of
    dirty lines on the cached-store paths, and corrupted cached reads from
    media-faulty lines.  Spontaneous evictions are hardware-initiated:
    they do not tick the crash countdown and charge no simulated time. *)

val set_fault_model : t -> Fault_model.t option -> unit

(** {1 Persistency event tracing}

    An attached tracer receives every {!Trace.event} — stores, flushes,
    fences, pin/unpin, evictions, crashes — in program order, interleaved
    with the semantic annotations the upper layers emit through
    {!Pmcheck}.  With no tracer attached the hot paths pay one pointer
    compare and allocate nothing. *)

val set_tracer : t -> (Trace.event -> unit) option -> unit
val tracer : t -> (Trace.event -> unit) option

val traced : t -> bool
(** [traced t] is true when a tracer is attached; annotation emitters
    guard on it so events are only built when someone listens. *)

val emit : t -> Trace.event -> unit
(** Forward an already-built event to the tracer, if any. *)

val set_trace_loads : t -> bool -> unit
(** Also report {!Trace.Load} events to the tracer.  Off by default:
    the persistency sanitizer and the crash-state enumerator do not
    consume loads (and loads dominate event volume); the race detector
    switches them on while attached. *)

(** {1 Store-buffer pinning}

    A pinned line models a store held back in the store buffer: every
    load sees it, but it is not yet released to the cache hierarchy — the
    eviction adversary cannot write it back, and a crash always loses it.
    The WAL layer pins user-data lines whose undo records sit in a
    not-yet-persistent batch group and unpins them once the group is
    durable.  An explicit {!flush_line} (and {!crash}) clears the pin. *)

val pin_line : t -> int -> unit
val unpin_line : t -> int -> unit
val is_pinned : t -> int -> bool

(** {1 Root directory}

    Sixty-three durable word slots at fixed offsets, used to anchor
    persistent structures across crashes. *)

val root_get : t -> int -> int64
val root_set : t -> int -> int64 -> unit
val reserved_bytes : int

(** {1 Test helpers} *)

val durable_read : t -> int -> int64
(** Read the durable image directly, bypassing the cache (tests only). *)

val is_dirty : t -> int -> bool

val corrupt : t -> int -> int -> unit
(** [corrupt t off len] flips the bits of [len] bytes in both the durable
    and volatile images, simulating in-place media corruption of
    already-durable data (tests only). *)

(** {1 Durable-image snapshots}

    Used by the crash-state enumerator: {!capture} freezes both memory
    images at a fence boundary; {!materialize} then builds the post-crash
    arena for any chosen subset of the dirty lines — the lines the
    hardware happened to write back before power was lost.  Pinned lines
    sit in the store buffer and never survive, so they are excluded from
    {!image_dirty_lines}. *)

type image

val capture : t -> image
(** Freeze the arena's durable/volatile images and dirty/pinned maps,
    copying only the chunks the arena has materialised. *)

val image_dirty_lines : image -> int list
(** Line numbers whose survival a crash leaves open: dirty and unpinned. *)

val materialize : image -> survivors:int list -> t
(** [materialize img ~survivors] is a fresh crashed arena whose durable
    state is [img]'s durable image with each line in [survivors]
    overwritten by its volatile copy. *)
