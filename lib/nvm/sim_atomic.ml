(* Instrumented atomics: a thin wrapper over [Stdlib.Atomic] that gives
   each atomic a process-unique identity and reports every operation to
   {!Trace.emit_sync}.

   The race detector treats each reported operation as an
   acquire+release on the atomic's identity — the fetch-and-add chains
   on REWIND's global LSN and transaction counter are exactly such
   edges.  This slightly over-approximates plain [get]/[set] (a relaxed
   load carries no release), which is the conservative direction for a
   detector that gates CI: extra edges can only hide races between
   operations that did synchronise on the atomic, never invent one.

   Code outside [lib/nvm] must use this module (or {!Sim_mutex}) instead
   of raw [Stdlib.Atomic] — enforced by the tools/lint.sh CI pass — so
   the detector sees all synchronisation. *)

type 'a t = { a : 'a Atomic.t; id : int }

let next_id = Atomic.make 0
let make v = { a = Atomic.make v; id = Atomic.fetch_and_add next_id 1 }
let id t = t.id
let trace t = Trace.emit_sync (Trace.Atomic_rmw { atom = t.id })

let get t =
  trace t;
  Atomic.get t.a

let set t v =
  trace t;
  Atomic.set t.a v

let fetch_and_add t n =
  trace t;
  Atomic.fetch_and_add t.a n

let incr t = ignore (fetch_and_add t 1)

(* -- atomic arena words -------------------------------------------------- *)

(* NVM-resident atomics: the link words of lock-free durable structures
   live in the arena, not on the OCaml heap, so their CAS chains need a
   distinct instrumentation path.  The word's identity is derived from
   its address — negated so it can never collide with the non-negative
   ids [make] hands out — and every access is *bracketed* by two
   [Atomic_rmw] events on that identity:

     rmw (acquire: join the word's release clock)
     load / store / flush   (the access, charged and traced by Arena)
     rmw (release: publish a clock that covers the access)

   The leading edge orders this access after every earlier completed
   access to the word; the trailing edge publishes this access — without
   it, the race detector would see the Store/Load land *after* the
   acquire's tick and report it racy against the next fiber's access.
   Bracketing a plain atomic read with a full acquire+release
   over-approximates (same conservative direction as [get] above).

   [compare_and_set_word ~persist:true] additionally flushes the CAS'd
   line *inside* the bracket — link-and-persist: the write-back is
   ordered with the CAS chain itself, so a later CAS on the same word
   happens-after the flush and the durable prefix is not
   schedule-dependent. *)

let word_atom addr = -1 - (addr lsr 3)

(* Simulated cost of the lock-prefixed RMW itself, on top of whatever the
   arena charges for the memory traffic (same order as an uncontended
   Sim_mutex acquire). *)
let rmw_ns = 20

let bracket addr f =
  let atom = word_atom addr in
  Trace.emit_sync (Trace.Atomic_rmw { atom });
  let r = f () in
  Trace.emit_sync (Trace.Atomic_rmw { atom });
  r

let read_word arena addr = bracket addr (fun () -> Arena.read arena addr)

let write_word arena addr v =
  Clock.advance rmw_ns;
  bracket addr (fun () -> Arena.write arena addr v)

let compare_and_set_word ?(persist = false) arena addr ~expected ~desired =
  Clock.advance rmw_ns;
  bracket addr (fun () ->
      if Arena.read arena addr = expected then begin
        Arena.write arena addr desired;
        if persist then Arena.flush_line arena addr;
        true
      end
      else false)
