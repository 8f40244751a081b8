(* A mutex that models contention in simulated time.

   Two operating modes:

   - Under the {!Sim_threads} fiber scheduler (the benchmark harness):
     mutual exclusion is cooperative.  A fiber that finds the lock held
     advances its clock just past the holder's progress and yields; once
     free, acquiring pulls the fiber's clock up to the last release time.
     Contention is thus resolved at lock-section granularity in simulated
     time.

   - Under real domains (or plain single-threaded code): a real [Mutex]
     provides exclusion and the release-time rule alone models waiting —
     a domain whose clock is behind the last release is pulled forward,
     which is how serialisation on REWIND's log latch (Section 4.7) and
     the baselines' coarse locks show up in the multithreaded figures.

   Every lock carries a process-unique identity and reports each
   acquire/release to {!Trace.emit_sync}, so the race detector sees the
   full synchronisation order — including the [contention_free] path
   (the allocator's lock), which excludes without ever waiting but still
   orders its critical sections.

   Each lock also accumulates, without moving any clock, the simulated
   time acquirers spent waiting for it (the spans [Clock.advance_to]
   skips) and the time it was held (acquire to release). *)

exception Misuse of string

type t = {
  mu : Mutex.t;
  id : int;                   (* process-unique lock identity *)
  mutable released_at : int;  (* simulated ns of the last release *)
  mutable holder : int;       (* fiber id, -1 when free (fiber mode only) *)
  acquire_ns : int;           (* fixed cost of the lock operation itself *)
  contention_free : bool;
      (* free in simulated time: pay [acquire_ns], never wait.  Real
         mutual exclusion is still provided (real mutex under domains;
         no preemption inside the section under the fiber scheduler). *)
  mutable acquired_at : int;  (* simulated ns the current hold began *)
  mutable wait_ns : int;      (* total simulated ns acquirers waited *)
  mutable hold_ns : int;      (* total simulated ns the lock was held *)
}

let next_id = Atomic.make 0

let create ?(acquire_ns = 20) ?(contention_free = false) () =
  {
    mu = Mutex.create ();
    id = Atomic.fetch_and_add next_id 1;
    released_at = 0;
    holder = -1;
    acquire_ns;
    contention_free;
    acquired_at = 0;
    wait_ns = 0;
    hold_ns = 0;
  }

let id t = t.id
let holding t = Sim_threads.active () && t.holder = Sim_threads.current ()
let trace_acquire t = Trace.emit_sync (Trace.Acquire { lock = t.id })
let trace_release t = Trace.emit_sync (Trace.Release { lock = t.id })

let wait_ns t = t.wait_ns
let hold_ns t = t.hold_ns

(* [Clock.advance_to target], adding the span it skips to the lock's wait
   total. *)
let wait_until t target =
  let now = Clock.now () in
  if target > now then t.wait_ns <- t.wait_ns + (target - now);
  Clock.advance_to target

(* The acquire is complete: charge its fixed cost, start the hold. *)
let acquired t =
  Clock.advance t.acquire_ns;
  t.acquired_at <- Clock.now ();
  trace_acquire t

(* Fiber-mode ownership bookkeeping.  The holder field is what makes
   double-unlock and unlock-by-non-holder detectable: outside the fiber
   scheduler the real [Mutex] raises [Sys_error] on misuse already. *)
let take_fiber t = t.holder <- Sim_threads.current ()

let release_fiber t =
  let me = Sim_threads.current () in
  if t.holder = -1 then
    raise
      (Misuse
         (Printf.sprintf "Sim_mutex: double unlock of lock %d by fiber %d" t.id
            me));
  if t.holder <> me then
    raise
      (Misuse
         (Printf.sprintf
            "Sim_mutex: fiber %d unlocking lock %d held by fiber %d" me t.id
            t.holder));
  t.holder <- -1

let lock t =
  if t.contention_free then begin
    (* free in simulated time: acquire cost only, no waiting *)
    if Sim_threads.active () then take_fiber t else Mutex.lock t.mu;
    acquired t
  end
  else if Sim_threads.active () then begin
    (* Reschedule first: a fiber with a smaller clock must reach this
       point before us in simulated time, so lock acquisitions are
       processed in (near) simulated-time order. *)
    Sim_threads.yield ();
    while t.holder >= 0 do
      (* Busy in simulated time: catch up to the holder and let it run. *)
      wait_until t (Sim_threads.clock_of t.holder + 1);
      Sim_threads.yield ()
    done;
    take_fiber t;
    wait_until t t.released_at;
    acquired t
  end
  else begin
    Mutex.lock t.mu;
    wait_until t t.released_at;
    acquired t
  end

let try_lock t =
  if t.contention_free then begin
    (* a contention-free lock never waits; a try is an acquire *)
    lock t;
    true
  end
  else if Sim_threads.active () then begin
    (* Same rescheduling rule as [lock], so tries are processed in (near)
       simulated-time order before the holder check. *)
    Sim_threads.yield ();
    if t.holder >= 0 then begin
      Clock.advance t.acquire_ns;
      false
    end
    else begin
      take_fiber t;
      wait_until t t.released_at;
      acquired t;
      true
    end
  end
  else if Mutex.try_lock t.mu then begin
    wait_until t t.released_at;
    acquired t;
    true
  end
  else begin
    Clock.advance t.acquire_ns;
    false
  end

let unlock t =
  trace_release t;
  t.hold_ns <- t.hold_ns + max 0 (Clock.now () - t.acquired_at);
  if t.contention_free then begin
    if Sim_threads.active () then release_fiber t
    else if t.holder >= 0 then t.holder <- -1
      (* acquired under the scheduler, released after it stopped *)
    else Mutex.unlock t.mu
  end
  else begin
    t.released_at <- Clock.now ();
    if Sim_threads.active () then release_fiber t
    else if t.holder >= 0 then t.holder <- -1
    else Mutex.unlock t.mu
  end

let with_lock t f =
  lock t;
  match f () with
  | v ->
      unlock t;
      v
  | exception e ->
      unlock t;
      raise e
