(* Simulated byte-addressable NVM with an explicit write-back cache.

   Two byte buffers back each arena:
   - [durable] is the NVM contents: the only state that survives {!crash}.
   - [volatile] is what the CPU sees: [durable] plus all not-yet-written-back
     cached stores.

   A cached {!write} lands in [volatile] and marks its cacheline dirty.  It
   becomes durable only when the line is written back by {!flush_line} /
   {!flush_all} or when the store was issued as a non-temporal {!nt_write}.
   {!crash} throws away every dirty line, exactly the failure REWIND's WAL
   protocol must survive.

   Cost model: every write that reaches NVM charges [nvm_write_ns] to the
   calling domain's {!Clock}, with consecutive writes to one cacheline merged
   into a single charge (the paper's accounting); {!fence} charges [fence_ns]
   and breaks write-combining.

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

type t = {
  size : int;
  durable : Bytes.t;
  volatile : Bytes.t;
  dirty : Bytes.t;  (* one byte per cacheline: 0 clean, 1 dirty *)
  pinned : Bytes.t; (* one byte per cacheline: 1 = held in the store
                       buffer — never spontaneously evicted, never
                       survives a crash (see [pin_line]) *)
  line_shift : int;
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
  let line = config.Config.cacheline_bytes in
  let lines = (size_bytes + line - 1) / line in
  {
    size = size_bytes;
    durable = Bytes.make size_bytes '\000';
    volatile = Bytes.make size_bytes '\000';
    dirty = Bytes.make lines '\000';
    pinned = Bytes.make lines '\000';
    line_shift = log2_exact line;
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

let size t = t.size
let config t = t.config
let stats t = t.stats
let line_of t off = off lsr t.line_shift
let set_fault_model t fm = t.fault <- fm
let fault_model t = t.fault

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

let line_base_len t line =
  let base = line lsl t.line_shift in
  (base, min (1 lsl t.line_shift) (t.size - base))

let crash t =
  (* Partial-eviction adversary: each dirty line survives the power
     failure with the fault model's per-line probability.  Rolls happen in
     ascending line order, so the eviction mask is a pure function of the
     seed and the crash-time dirty set. *)
  (match t.fault with
  | None -> ()
  | Some fm ->
      for l = 0 to Bytes.length t.dirty - 1 do
        if
          Bytes.unsafe_get t.dirty l = '\001'
          && Bytes.unsafe_get t.pinned l = '\000'
          && Fault_model.survives_crash fm
        then begin
          let base, len = line_base_len t l in
          Bytes.blit t.volatile base t.durable base len;
          t.stats.Stats.crash_survivals <- t.stats.Stats.crash_survivals + 1
        end
      done);
  Bytes.blit t.durable 0 t.volatile 0 t.size;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Bytes.fill t.pinned 0 (Bytes.length t.pinned) '\000';
  t.last_nvm_line <- -1;
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
  if
    Bytes.unsafe_get t.dirty line = '\001'
    && Bytes.unsafe_get t.pinned line = '\000'
  then begin
    let base, len = line_base_len t line in
    Bytes.blit t.volatile base t.durable base len;
    Bytes.unsafe_set t.dirty line '\000';
    t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
    match t.tracer with
    | None -> ()
    | Some f -> f (Trace.Evict { off = base })
  end

(* Mark a line dirty and, under an armed fault model, remember it as an
   eviction candidate... *)
let mark_dirty t line =
  Bytes.unsafe_set t.dirty line '\001';
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
  let v = Bytes.get_int64_le t.volatile off in
  if media_hit t off then Int64.logxor v corrupt_word else v

let write t off v =
  check_bounds t off 8;
  t.stats.Stats.stores <- t.stats.Stats.stores + 1;
  Clock.advance t.config.Config.dram_write_ns;
  Bytes.set_int64_le t.volatile off v;
  mark_dirty t (line_of t off);
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
  let v = Char.code (Bytes.get t.volatile off) in
  if media_hit t off then v lxor corrupt_byte else v

let write_byte t off v =
  check_bounds t off 1;
  t.stats.Stats.stores <- t.stats.Stats.stores + 1;
  Clock.advance t.config.Config.dram_write_ns;
  Bytes.set t.volatile off (Char.chr (v land 0xff));
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
  let b = Bytes.sub t.volatile off len in
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

let write_bytes t off s =
  let len = String.length s in
  check_bounds t off len;
  let lines = lines_touched t off len in
  t.stats.Stats.stores <- t.stats.Stats.stores + lines;
  Clock.advance (lines * t.config.Config.dram_write_ns);
  Bytes.blit_string s 0 t.volatile off len;
  let first = line_of t off and last = line_of t (off + max 0 (len - 1)) in
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
  Bytes.set_int64_le t.volatile off v;
  Bytes.set_int64_le t.durable off v;
  charge_line_write t (line_of t off);
  t.persisted_since_fence <- true;
  match t.tracer with
  | None -> ()
  | Some f -> f (Trace.Store { off; len = 8; durable = true })

let flush_line t off =
  check_bounds t off 1;
  let line = line_of t off in
  if Bytes.unsafe_get t.dirty line = '\001' then begin
    persist_event t;
    t.stats.Stats.flushes <- t.stats.Stats.flushes + 1;
    let base = line lsl t.line_shift in
    let len = min (1 lsl t.line_shift) (t.size - base) in
    Bytes.blit t.volatile base t.durable base len;
    Bytes.unsafe_set t.dirty line '\000';
    Bytes.unsafe_set t.pinned line '\000';
    charge_line_write t line;
    t.persisted_since_fence <- true;
    match t.tracer with
    | None -> ()
    | Some f -> f (Trace.Flush { off = base; dirty = true })
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

let flush_all t =
  for l = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty l = '\001' then flush_line t (l lsl t.line_shift)
  done

let fence t =
  t.stats.Stats.fences <- t.stats.Stats.fences + 1;
  if not t.persisted_since_fence then
    t.stats.Stats.redundant_fences <- t.stats.Stats.redundant_fences + 1;
  t.persisted_since_fence <- false;
  t.last_nvm_line <- -1;
  Clock.advance t.config.Config.fence_ns;
  match t.tracer with None -> () | Some f -> f Trace.Fence

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
  Bytes.get_int64_le t.durable off

let is_dirty t off = Bytes.unsafe_get t.dirty (line_of t off) = '\001'

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
  Bytes.unsafe_set t.pinned (line_of t off) '\001';
  match t.tracer with None -> () | Some f -> f (Trace.Pin { off })

let unpin_line t off =
  check_bounds t off 1;
  Bytes.unsafe_set t.pinned (line_of t off) '\000';
  match t.tracer with None -> () | Some f -> f (Trace.Unpin { off })

let is_pinned t off = Bytes.unsafe_get t.pinned (line_of t off) = '\001'

(* Flip the bits of [len] bytes in both images, simulating in-place media
   corruption of already-durable data (tests only). *)
let corrupt t off len =
  check_bounds t off len;
  for i = off to off + len - 1 do
    Bytes.set t.durable i (Char.chr (Char.code (Bytes.get t.durable i) lxor 0xff));
    Bytes.set t.volatile i (Char.chr (Char.code (Bytes.get t.volatile i) lxor 0xff))
  done

(* -- durable-image snapshots (crash-state enumerator) ------------------- *)

(* A frozen copy of both memory images plus the dirty/pinned line maps.
   The enumerator captures one at each fence boundary and later
   materializes every crash state reachable from it: the durable image
   plus any subset of the dirty, unpinned lines (each may or may not have
   been written back by the hardware before power was lost); pinned lines
   still sit in the store buffer, so no subset includes them. *)

type image = {
  i_size : int;
  i_config : Config.t;
  i_durable : Bytes.t;
  i_volatile : Bytes.t;
  i_dirty : Bytes.t;
  i_pinned : Bytes.t;
}

let capture t =
  {
    i_size = t.size;
    i_config = t.config;
    i_durable = Bytes.copy t.durable;
    i_volatile = Bytes.copy t.volatile;
    i_dirty = Bytes.copy t.dirty;
    i_pinned = Bytes.copy t.pinned;
  }

(* Line numbers that a crash may or may not preserve: dirty and unpinned. *)
let image_dirty_lines img =
  let acc = ref [] in
  for l = Bytes.length img.i_dirty - 1 downto 0 do
    if
      Bytes.unsafe_get img.i_dirty l = '\001'
      && Bytes.unsafe_get img.i_pinned l = '\000'
    then acc := l :: !acc
  done;
  !acc

(* Build a fresh post-crash arena from [img]: the durable image, with each
   line in [survivors] overwritten by its volatile (written-back) copy. *)
let materialize img ~survivors =
  let t = create ~config:img.i_config ~size_bytes:img.i_size () in
  Bytes.blit img.i_durable 0 t.durable 0 img.i_size;
  List.iter
    (fun l ->
      let base = l lsl t.line_shift in
      let len = min (1 lsl t.line_shift) (img.i_size - base) in
      Bytes.blit img.i_volatile base t.durable base len)
    survivors;
  Bytes.blit t.durable 0 t.volatile 0 img.i_size;
  t.crashed <- true;
  t
