(* Simulated byte-addressable NVM with an explicit write-back cache.

   Two images back each arena:
   - the durable image is the NVM contents: the only state that survives
     {!crash}.
   - the volatile image is what the CPU sees: the durable image plus all
     not-yet-written-back cached stores.

   A cached {!write} lands in the volatile image and marks its cacheline
   dirty.  It becomes durable only when the line is written back by
   {!flush_line} / {!flush_all} or when the store was issued as a
   non-temporal {!nt_write}.  {!crash} throws away every dirty line,
   exactly the failure REWIND's WAL protocol must survive.

   Storage is lazily materialised.  The arena is an array of fixed 64 KiB
   chunks; each chunk holds its slice of both images and a dirty and a
   pinned flag per cacheline, and the arena counts each chunk's dirty and
   pinned lines.  The chunk size is a multiple of every legal cacheline,
   so a line never straddles two chunks.  An untouched chunk is the
   shared [empty] sentinel, which reads as zeros; the first store, pin or
   {!corrupt} materialises it.  A clean line always has equal volatile and durable
   bytes, so {!crash} and {!flush_all} visit only chunks with a dirty (or
   pinned) line, and {!capture} copies only materialised chunks: each
   costs what a run touched, not the arena's size.  Chunks and the lines
   within them are visited in ascending order, so every observable order
   (fault-model rolls, persistence events, trace events) is that of a
   flat line-by-line sweep.

   Cost model: every write that reaches NVM charges [nvm_write_ns] to the
   calling domain's {!Clock}, with consecutive writes to one cacheline merged
   into a single charge (the paper's accounting); {!fence} charges [fence_ns]
   and breaks write-combining.  Chunking is invisible to it.

   Crash injection: {!arm_crash} makes the [after]+1-th persistence event
   raise {!Crash} *before* taking effect, so a test can enumerate every
   intermediate durable state of an operation.

   Fault injection: an attached {!Fault_model} replaces the kind crash
   semantics with the arbitrary-eviction adversary of real hardware — at
   crash time each dirty line survives with the model's per-line
   probability; cached stores may spontaneously evict recently-dirtied
   lines during normal operation; media-faulty lines serve corrupted
   cached reads.  Spontaneous evictions are hardware-initiated: they are
   not persistence events (no crash-countdown tick, no clock charge). *)

exception Crash

(* Ring of recently-dirtied line numbers from which spontaneous evictions
   pick their victim; must be a power of two. *)
let recent_cap = 64

(* Deterministic corruption pattern served by media-faulty lines. *)
let corrupt_byte = 0xA5
let corrupt_word = 0xA5A5A5A5A5A5A5A5L

(* -- chunked storage ---------------------------------------------------- *)

(* A chunk is one [Bytes.t]: the volatile image of its 64 KiB at offset 0,
   the durable image at [dur_at], then one flag byte per cacheline at
   [flags_at].  One block keeps a store's data and its line's flag close
   and costs one indirection on the load path. *)
let chunk_shift = 16
let chunk_bytes = 1 lsl chunk_shift
let chunk_mask = chunk_bytes - 1
let dur_at = chunk_bytes
let flags_at = 2 * chunk_bytes

(* Flag bits.  [pinned]: held in the store buffer — never spontaneously
   evicted, never survives a crash (see [pin_line]). *)
let dirty_bit = 1
let pinned_bit = 2

(* The untouched chunk, shared by every arena: all zeros, no flag set.
   Never written — every mutator materialises its chunk first.  Its flag
   area is long enough for the smallest legal line (one byte). *)
let empty = Bytes.make (flags_at + chunk_bytes) '\000'

type t = {
  size : int;
  chunks : Bytes.t array;  (* [empty] until first touched *)
  dirty_n : int array;     (* per chunk: lines with [dirty_bit] set *)
  pinned_n : int array;    (* per chunk: lines with [pinned_bit] set *)
  line_shift : int;
  lpc_shift : int;  (* log2 of lines per chunk *)
  config : Config.t;
  stats : Stats.t;
  mutable last_nvm_line : int;
  mutable crash_countdown : int;  (* -1: disarmed *)
  mutable crashed : bool;
  mutable fault : Fault_model.t option;
  recent : int array;      (* ring of recently-dirtied lines *)
  mutable recent_n : int;  (* total pushes into [recent] *)
  mutable tracer : (Trace.event -> unit) option;
      (* persistency event sink (sanitizer / enumerator); every event is
         constructed inside a [Some] match arm so the disabled path costs
         one pointer compare *)
  mutable trace_loads : bool;
      (* also emit Load events to the tracer.  Off by default: the
         sanitizer and enumerator never need loads, only the race
         detector does, and loads dominate the event volume. *)
  mutable persisted_since_fence : bool;
      (* has any persistence event happened since the last fence?  Feeds
         the redundant-fence diagnostic counter. *)
}

let log2_exact n =
  let rec go acc = function
    | 1 -> acc
    | m ->
        if m land 1 <> 0 then invalid_arg "cacheline size must be a power of 2"
        else go (acc + 1) (m lsr 1)
  in
  go 0 n

(* The first [reserved_bytes] hold the root directory (see {!root_get}). *)
let reserved_bytes = 512
let root_slots = reserved_bytes / 8

let create ?(config = Config.default ()) ~size_bytes () =
  if size_bytes < reserved_bytes then invalid_arg "Arena.create: size too small";
  let line_shift = log2_exact config.Config.cacheline_bytes in
  if line_shift > chunk_shift then
    invalid_arg "Arena.create: cacheline larger than a 64 KiB chunk";
  let n = (size_bytes + chunk_mask) lsr chunk_shift in
  {
    size = size_bytes;
    chunks = Array.make n empty;
    dirty_n = Array.make n 0;
    pinned_n = Array.make n 0;
    line_shift;
    lpc_shift = chunk_shift - line_shift;
    config;
    stats = Stats.create ();
    last_nvm_line = -1;
    crash_countdown = -1;
    crashed = false;
    fault = None;
    recent = Array.make recent_cap 0;
    recent_n = 0;
    tracer = None;
    trace_loads = false;
    persisted_since_fence = false;
  }

(* The last chunk is allocated whole: no store reaches past the arena's
   end, so its tail stays zero in both images. *)
let alloc_chunk t ci =
  let c = Bytes.make (flags_at + (1 lsl t.lpc_shift)) '\000' in
  t.chunks.(ci) <- c;
  c

(* The chunk of byte offset [off], materialised for a mutation. *)
let[@inline] chunk_w t off =
  let ci = off lsr chunk_shift in
  let c = t.chunks.(ci) in
  if c != empty then c else alloc_chunk t ci

(* Line [line] is flag byte [line_idx t line] of chunk
   [line lsr lpc_shift]; its bytes start at [line_off t line] in each
   image of that chunk. *)
let[@inline] line_idx t line = line land ((1 lsl t.lpc_shift) - 1)
let[@inline] line_off t line = line_idx t line lsl t.line_shift

let[@inline] flags c i = Char.code (Bytes.unsafe_get c (flags_at + i))
let[@inline] set_flags c i f = Bytes.unsafe_set c (flags_at + i) (Char.unsafe_chr f)

let line_flags t line = flags t.chunks.(line lsr t.lpc_shift) (line_idx t line)

(* Set or clear one flag bit of a line, keeping the chunk's count.
   Setting materialises the chunk; an untouched chunk has nothing to
   clear, so clearing never writes it. *)
let[@inline] set_bit t counts bit line =
  let c = chunk_w t (line lsl t.line_shift) and i = line_idx t line in
  let f = flags c i in
  if f land bit = 0 then begin
    set_flags c i (f lor bit);
    let ci = line lsr t.lpc_shift in
    counts.(ci) <- counts.(ci) + 1
  end

let clear_bit t counts bit line =
  let ci = line lsr t.lpc_shift and i = line_idx t line in
  let c = t.chunks.(ci) in
  let f = flags c i in
  if f land bit <> 0 then begin
    set_flags c i (f land lnot bit);
    counts.(ci) <- counts.(ci) - 1
  end

(* Copy one line of chunk [c] between its images. *)
let write_back t c o = Bytes.blit c o c (dur_at + o) (1 lsl t.line_shift)
let revert t c o = Bytes.blit c (dur_at + o) c o (1 lsl t.line_shift)

(* Copy [len] bytes of the image at [at] (0 or [dur_at]), from arena
   offset [off], into [dst]. *)
let blit_out t ~at off dst dpos len =
  let off = ref off and dpos = ref dpos and len = ref len in
  while !len > 0 do
    let o = !off land chunk_mask in
    let n = min !len (chunk_bytes - o) in
    Bytes.blit t.chunks.(!off lsr chunk_shift) (at + o) dst !dpos n;
    off := !off + n;
    dpos := !dpos + n;
    len := !len - n
  done

(* Copy [src] into the image at [at], from arena offset [off],
   materialising chunks. *)
let blit_in t ~at src off =
  let spos = ref 0 and len = String.length src in
  while !spos < len do
    let a = off + !spos in
    let o = a land chunk_mask in
    let n = min (len - !spos) (chunk_bytes - o) in
    Bytes.blit_string src !spos (chunk_w t a) (at + o) n;
    spos := !spos + n
  done

(* A word fits its chunk when its offset there is at most [last_word].
   Word loads and stores test that and then skip the bytes' own bounds
   check: every image offset of a fitting word lies inside its chunk.
   A word that straddles two chunks takes the [_split] paths. *)
let last_word = chunk_bytes - 8

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_le c o = if Sys.big_endian then swap64 (get64u c o) else get64u c o

let[@inline] set_le c o v =
  if Sys.big_endian then set64u c o (swap64 v) else set64u c o v

let get_word_split t ~at off =
  let b = Bytes.create 8 in
  blit_out t ~at off b 0 8;
  Bytes.get_int64_le b 0

let set_word_split t ~at off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  blit_in t ~at (Bytes.unsafe_to_string b) off

let size t = t.size
let config t = t.config
let stats t = t.stats
let line_of t off = off lsr t.line_shift
let set_fault_model t fm = t.fault <- fm

(* -- persistency event tracing ---------------------------------------- *)

let set_tracer t f = t.tracer <- f
let tracer t = t.tracer
let traced t = t.tracer <> None
let set_trace_loads t b = t.trace_loads <- b

(* Loads are only reported when a tracer is attached *and* opted in. *)
let emit_load t off len =
  if t.trace_loads then
    match t.tracer with
    | None -> ()
    | Some f -> f (Trace.Load { off; len })

(* Forward an already-built event; annotation emitters ({!Pmcheck}) guard
   with [traced] so the event is only allocated when a sink is attached. *)
let emit t ev = match t.tracer with None -> () | Some f -> f ev

let check_bounds t off len =
  if off < 0 || len < 0 || off + len > t.size then
    Fmt.invalid_arg "Arena: access [%d,%d) outside arena of %d bytes" off
      (off + len) t.size

(* -- crash machinery ------------------------------------------------- *)

let crash t =
  (* Partial-eviction adversary: each dirty line survives the power
     failure with the fault model's per-line probability.  Rolls happen in
     ascending line order, so the eviction mask is a pure function of the
     seed and the crash-time dirty set.  A lost dirty line reverts to its
     durable bytes; clean lines already match them. *)
  for ci = 0 to Array.length t.chunks - 1 do
    if t.dirty_n.(ci) > 0 || t.pinned_n.(ci) > 0 then begin
      let c = t.chunks.(ci) in
      if t.dirty_n.(ci) > 0 then
        for i = 0 to (1 lsl t.lpc_shift) - 1 do
          let f = flags c i in
          if f land dirty_bit <> 0 then begin
            let o = i lsl t.line_shift in
            match t.fault with
            | Some fm
              when f land pinned_bit = 0 && Fault_model.survives_crash fm ->
                write_back t c o;
                t.stats.Stats.crash_survivals <- t.stats.Stats.crash_survivals + 1
            | _ -> revert t c o
          end
        done;
      Bytes.fill c flags_at (1 lsl t.lpc_shift) '\000';
      t.dirty_n.(ci) <- 0;
      t.pinned_n.(ci) <- 0
    end
  done;
  t.last_nvm_line <- -1;
  (* nothing is in flight past a power failure: the next fence orders
     nothing unless a write-back follows *)
  t.persisted_since_fence <- false;
  t.crash_countdown <- -1;
  t.crashed <- true;
  t.stats.Stats.crashes <- t.stats.Stats.crashes + 1;
  (match t.tracer with None -> () | Some f -> f Trace.Crash)

let arm_crash t ~after =
  if after < 0 then invalid_arg "Arena.arm_crash";
  t.crash_countdown <- after

let disarm_crash t = t.crash_countdown <- -1
let crashed t = t.crashed
let clear_crashed t = t.crashed <- false

(* Called before every event that would make state durable.  When the
   countdown expires the crash happens *instead of* the event. *)
let persist_event t =
  if t.crash_countdown >= 0 then
    if t.crash_countdown = 0 then begin
      crash t;
      raise Crash
    end
    else t.crash_countdown <- t.crash_countdown - 1

let charge_line_write t line =
  if line <> t.last_nvm_line then begin
    t.last_nvm_line <- line;
    t.stats.Stats.nvm_writes <- t.stats.Stats.nvm_writes + 1;
    Clock.advance t.config.Config.nvm_write_ns
  end

(* -- fault-model hooks ------------------------------------------------- *)

(* Hardware-initiated write-back of one dirty line: durable immediately,
   but neither a persistence event nor a clock charge (background traffic
   on real hardware). *)
let evict_line t line =
  if line_flags t line = dirty_bit then begin
    write_back t t.chunks.(line lsr t.lpc_shift) (line_off t line);
    clear_bit t t.dirty_n dirty_bit line;
    t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
    match t.tracer with
    | None -> ()
    | Some f -> f (Trace.Evict { off = line lsl t.line_shift })
  end

(* Mark a line dirty and, under an armed fault model, remember it as an
   eviction candidate... *)
let mark_dirty t line =
  set_bit t t.dirty_n dirty_bit line;
  match t.fault with
  | None -> ()
  | Some _ ->
      t.recent.(t.recent_n land (recent_cap - 1)) <- line;
      t.recent_n <- t.recent_n + 1

(* ...and roll the clean-capacity-eviction die. *)
let roll_eviction t =
  match t.fault with
  | Some fm when Fault_model.roll_eviction fm ->
      evict_line t t.recent.(Fault_model.choose fm (min t.recent_n recent_cap))
  | _ -> ()

(* Does a cached read of [off] hit a media-faulty line?  Counts the hit. *)
let media_hit t off =
  match t.fault with
  | None -> false
  | Some fm ->
      Fault_model.media_faulty fm ~line:(line_of t off)
      && begin
           t.stats.Stats.media_faults <- t.stats.Stats.media_faults + 1;
           true
         end

(* Cachelines touched by [off, off+len); at least 1 (a zero-length access
   still issues the instruction). *)
let lines_touched t off len =
  if len <= 0 then 1 else line_of t (off + len - 1) - line_of t off + 1

(* -- loads and cached stores ------------------------------------------ *)

let read t off =
  check_bounds t off 8;
  t.stats.Stats.loads <- t.stats.Stats.loads + 1;
  Clock.advance t.config.Config.dram_read_ns;
  emit_load t off 8;
  let o = off land chunk_mask in
  let v =
    if o <= last_word then get_le t.chunks.(off lsr chunk_shift) o
    else get_word_split t ~at:0 off
  in
  if media_hit t off then Int64.logxor v corrupt_word else v

(* A word store dirties every line it touches: one, or two when it is
   unaligned across a line boundary. *)
let write t off v =
  check_bounds t off 8;
  t.stats.Stats.stores <- t.stats.Stats.stores + 1;
  Clock.advance t.config.Config.dram_write_ns;
  let o = off land chunk_mask in
  if o <= last_word then set_le (chunk_w t off) o v
  else set_word_split t ~at:0 off v;
  let first = line_of t off and last = line_of t (off + 7) in
  mark_dirty t first;
  if last <> first then mark_dirty t last;
  (* Trace the store before the eviction roll: a tracer must see a store
     before the write-back that makes it durable. *)
  (match t.tracer with
  | None -> ()
  | Some f -> f (Trace.Store { off; len = 8; durable = false }));
  roll_eviction t

let read_byte t off =
  check_bounds t off 1;
  t.stats.Stats.loads <- t.stats.Stats.loads + 1;
  Clock.advance t.config.Config.dram_read_ns;
  emit_load t off 1;
  let v = Char.code (Bytes.get t.chunks.(off lsr chunk_shift) (off land chunk_mask)) in
  if media_hit t off then v lxor corrupt_byte else v

let write_byte t off v =
  check_bounds t off 1;
  t.stats.Stats.stores <- t.stats.Stats.stores + 1;
  Clock.advance t.config.Config.dram_write_ns;
  Bytes.set (chunk_w t off) (off land chunk_mask) (Char.chr (v land 0xff));
  mark_dirty t (line_of t off);
  (match t.tracer with
  | None -> ()
  | Some f -> f (Trace.Store { off; len = 1; durable = false }));
  roll_eviction t

let read_bytes t off len =
  check_bounds t off len;
  let lines = lines_touched t off len in
  t.stats.Stats.loads <- t.stats.Stats.loads + lines;
  Clock.advance (lines * t.config.Config.dram_read_ns);
  if len > 0 then emit_load t off len;
  let b = Bytes.create len in
  blit_out t ~at:0 off b 0 len;
  (match t.fault with
  | Some fm when Fault_model.media_fault_count fm > 0 ->
      for i = 0 to len - 1 do
        if Fault_model.media_faulty fm ~line:(line_of t (off + i)) then begin
          t.stats.Stats.media_faults <- t.stats.Stats.media_faults + 1;
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor corrupt_byte))
        end
      done
  | _ -> ());
  Bytes.unsafe_to_string b

(* A zero-length store still dirties the line at [off], if there is one. *)
let write_bytes t off s =
  let len = String.length s in
  check_bounds t off len;
  let lines = lines_touched t off len in
  t.stats.Stats.stores <- t.stats.Stats.stores + lines;
  Clock.advance (lines * t.config.Config.dram_write_ns);
  blit_in t ~at:0 s off;
  let first = line_of t off and last = line_of t (off + max 0 (len - 1)) in
  if off < t.size then
    for l = first to last do
      mark_dirty t l
    done;
  (match t.tracer with
  | None -> ()
  | Some f -> if len > 0 then f (Trace.Store { off; len; durable = false }));
  for _ = first to last do
    roll_eviction t
  done

(* -- durable stores ---------------------------------------------------- *)

(* Non-temporal word store: bypasses the cache and is durable on arrival.
   The word's cacheline may still be dirty from earlier cached stores to
   *other* words of the line; those stay volatile. *)
let nt_write t off v =
  check_bounds t off 8;
  persist_event t;
  t.stats.Stats.nt_stores <- t.stats.Stats.nt_stores + 1;
  let o = off land chunk_mask in
  if o <= last_word then begin
    let c = chunk_w t off in
    set_le c o v;
    set_le c (dur_at + o) v
  end
  else begin
    set_word_split t ~at:0 off v;
    set_word_split t ~at:dur_at off v
  end;
  charge_line_write t (line_of t off);
  t.persisted_since_fence <- true;
  match t.tracer with
  | None -> ()
  | Some f -> f (Trace.Store { off; len = 8; durable = true })

let flush_line t off =
  check_bounds t off 1;
  let line = line_of t off in
  if line_flags t line land dirty_bit <> 0 then begin
    persist_event t;
    t.stats.Stats.flushes <- t.stats.Stats.flushes + 1;
    write_back t t.chunks.(line lsr t.lpc_shift) (line_off t line);
    clear_bit t t.dirty_n dirty_bit line;
    clear_bit t t.pinned_n pinned_bit line;
    charge_line_write t line;
    t.persisted_since_fence <- true;
    match t.tracer with
    | None -> ()
    | Some f -> f (Trace.Flush { off = line lsl t.line_shift; dirty = true })
  end
  else begin
    (* The flush instruction was still issued; a clean line means it had
       nothing to write back — pure overhead. *)
    t.stats.Stats.redundant_flushes <- t.stats.Stats.redundant_flushes + 1;
    match t.tracer with
    | None -> ()
    | Some f -> f (Trace.Flush { off; dirty = false })
  end

let flush_range t off len =
  if len > 0 then begin
    check_bounds t off len;
    let first = line_of t off and last = line_of t (off + len - 1) in
    for l = first to last do
      flush_line t (l lsl t.line_shift)
    done
  end

(* Only chunks holding a dirty line, in ascending line order; share
   [(k, n)] visits only the lines whose index is [k] mod [n]. *)
let flush_all ?(share = (0, 1)) t =
  let k, n = share in
  if n < 1 || k < 0 || k >= n then invalid_arg "Arena.flush_all: bad share";
  let lpc = 1 lsl t.lpc_shift in
  for ci = 0 to Array.length t.chunks - 1 do
    if t.dirty_n.(ci) > 0 then begin
      let base = ci lsl t.lpc_shift in
      let i = ref (((k - base) mod n + n) mod n) in
      while !i < lpc do
        if flags t.chunks.(ci) !i land dirty_bit <> 0 then
          flush_line t ((base + !i) lsl t.line_shift);
        i := !i + n
      done
    end
  done

let fence t =
  t.stats.Stats.fences <- t.stats.Stats.fences + 1;
  if not t.persisted_since_fence then
    t.stats.Stats.redundant_fences <- t.stats.Stats.redundant_fences + 1;
  t.persisted_since_fence <- false;
  t.last_nvm_line <- -1;
  Clock.advance t.config.Config.fence_ns;
  match t.tracer with None -> () | Some f -> f Trace.Fence

let fence_if_needed t = if t.persisted_since_fence then fence t

(* Persist barrier: flush the word's line and fence.  The common "make this
   update durable now" sequence. *)
let persist t off len =
  flush_range t off len;
  fence t

(* -- root directory ---------------------------------------------------- *)

let root_off slot =
  if slot < 1 || slot >= root_slots then invalid_arg "Arena: bad root slot";
  slot * 8

let root_get t slot = read t (root_off slot)

let root_set t slot v =
  (* Roots anchor whole structures; they are always written durably. *)
  nt_write t (root_off slot) v;
  fence t

(* -- test/debug access to the durable image ---------------------------- *)

let durable_read t off =
  check_bounds t off 8;
  let o = off land chunk_mask in
  if o <= last_word then get_le t.chunks.(off lsr chunk_shift) (dur_at + o)
  else get_word_split t ~at:dur_at off

let is_dirty t off = line_flags t (line_of t off) land dirty_bit <> 0

(* -- store-buffer pinning ---------------------------------------------- *)

(* A pinned line models a store still held back in the store buffer: it is
   visible to every load (the volatile image has it) but is not yet
   released to the cache hierarchy, so the eviction adversary cannot write
   it back and a crash always loses it.  The WAL layer pins user-data
   lines whose undo records sit in a not-yet-persistent batch group and
   unpins them once the group is durable.  An explicit [flush_line] also
   unpins — the caller has taken charge of ordering. *)

let pin_line t off =
  check_bounds t off 1;
  set_bit t t.pinned_n pinned_bit (line_of t off);
  match t.tracer with None -> () | Some f -> f (Trace.Pin { off })

let unpin_line t off =
  check_bounds t off 1;
  clear_bit t t.pinned_n pinned_bit (line_of t off);
  match t.tracer with None -> () | Some f -> f (Trace.Unpin { off })

let is_pinned t off = line_flags t (line_of t off) land pinned_bit <> 0

(* Flip the bits of [len] bytes in both images, simulating in-place media
   corruption of already-durable data (tests only). *)
let corrupt t off len =
  check_bounds t off len;
  for a = off to off + len - 1 do
    let c = chunk_w t a and o = a land chunk_mask in
    let flip o = Bytes.set c o (Char.chr (Char.code (Bytes.get c o) lxor 0xff)) in
    flip o;
    flip (dur_at + o)
  done

(* -- durable-image snapshots (crash-state enumerator) ------------------- *)

(* A frozen copy of the materialised chunks — both memory images plus the
   line flags — and of the dirty-line counts.  The enumerator captures
   one at each fence boundary and later materializes every crash state
   reachable from it: the durable image plus any subset of the dirty,
   unpinned lines (each may or may not have been written back by the
   hardware before power was lost); pinned lines still sit in the store
   buffer, so no subset includes them. *)

type image = {
  i_size : int;
  i_config : Config.t;
  i_lpc_shift : int;
  i_chunks : Bytes.t array;  (* [empty] where the arena was untouched *)
  i_dirty_n : int array;
}

let capture t =
  {
    i_size = t.size;
    i_config = t.config;
    i_lpc_shift = t.lpc_shift;
    i_chunks = Array.map (fun c -> if c == empty then c else Bytes.copy c) t.chunks;
    i_dirty_n = Array.copy t.dirty_n;
  }

(* Line numbers that a crash may or may not preserve: dirty and unpinned. *)
let image_dirty_lines img =
  let acc = ref [] in
  for ci = Array.length img.i_chunks - 1 downto 0 do
    if img.i_dirty_n.(ci) > 0 then
      for i = (1 lsl img.i_lpc_shift) - 1 downto 0 do
        if flags img.i_chunks.(ci) i = dirty_bit then
          acc := ((ci lsl img.i_lpc_shift) + i) :: !acc
      done
  done;
  !acc

(* Build a fresh post-crash arena from [img]: the durable image, with each
   line in [survivors] overwritten by its volatile (written-back) copy. *)
let materialize img ~survivors =
  let t = create ~config:img.i_config ~size_bytes:img.i_size () in
  Array.iteri
    (fun ci c ->
      if c != empty then begin
        let n = alloc_chunk t ci in
        Bytes.blit c dur_at n 0 chunk_bytes;
        Bytes.blit c dur_at n dur_at chunk_bytes
      end)
    img.i_chunks;
  List.iter
    (fun l ->
      let c = img.i_chunks.(l lsr t.lpc_shift) and o = line_off t l in
      if c != empty then begin
        let n = t.chunks.(l lsr t.lpc_shift) in
        Bytes.blit c o n o (1 lsl t.line_shift);
        Bytes.blit c o n (dur_at + o) (1 lsl t.line_shift)
      end)
    survivors;
  t.crashed <- true;
  t
