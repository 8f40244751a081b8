(* A mutex that models contention in simulated time.

   The simulator runs on one domain, so exclusion is bookkeeping: each
   lock records its holder, a {!Sim_threads} fiber or the main thread
   outside the scheduler.  Under the scheduler exclusion is cooperative:
   a fiber that finds the lock held advances its clock just past the
   holder's progress and yields.  Acquiring pulls the acquirer's clock up
   to the last release time; outside the scheduler that rule alone is the
   wait.  Contention is thus resolved at lock-section granularity in
   simulated time, which is how serialisation on REWIND's log latch
   (Section 4.7) and the baselines' coarse locks show up in the
   multithreaded figures.  Because the holder is always known, a double
   unlock, an unlock by a non-holder and a re-lock raise {!Misuse}.

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
  id : int;                   (* process-unique lock identity *)
  mutable released_at : int;  (* simulated ns of the last release *)
  mutable holder : int;       (* [self] of the holder, [free] when free *)
  acquire_ns : int;           (* fixed cost of the lock operation itself *)
  contention_free : bool;
      (* free in simulated time: pay [acquire_ns], never wait.  Mutual
         exclusion still holds: no fiber is preempted inside the section. *)
  mutable acquired_at : int;  (* simulated ns the current hold began *)
  mutable wait_ns : int;      (* total simulated ns acquirers waited *)
  mutable hold_ns : int;      (* total simulated ns the lock was held *)
}

let free = -2
let next_id = Atomic.make 0

let create ?(acquire_ns = 20) ?(contention_free = false) () =
  {
    id = Atomic.fetch_and_add next_id 1;
    released_at = 0;
    holder = free;
    acquire_ns;
    contention_free;
    acquired_at = 0;
    wait_ns = 0;
    hold_ns = 0;
  }

(* The running thread: its fiber id under the scheduler, -1 for the main
   thread (as in {!Sim_threads}' trace events). *)
let self () = if Sim_threads.active () then Sim_threads.current () else -1
let who h = if h = -1 then "the main thread" else Printf.sprintf "fiber %d" h

let misuse fmt =
  Printf.ksprintf (fun s -> raise (Misuse ("Sim_mutex: " ^ s))) fmt

let id t = t.id
let holding t = t.holder = self ()
let wait_ns t = t.wait_ns
let hold_ns t = t.hold_ns

(* [Clock.advance_to target], adding the span it skips to the lock's wait
   total. *)
let wait_until t target =
  let now = Clock.now () in
  if target > now then t.wait_ns <- t.wait_ns + (target - now);
  Clock.advance_to target

(* Take the free lock: wait for its last release (never stamped on a
   contention-free lock), charge the fixed cost, start the hold. *)
let acquire t me =
  t.holder <- me;
  wait_until t t.released_at;
  Clock.advance t.acquire_ns;
  t.acquired_at <- Clock.now ();
  Trace.emit_sync (Trace.Acquire { lock = t.id })

let lock t =
  let me = self () in
  if t.holder = me then misuse "%s re-locks lock %d" (who me) t.id;
  if Sim_threads.active () && not t.contention_free then begin
    (* Reschedule first: a fiber with a smaller clock must reach this
       point before us in simulated time, so lock acquisitions are
       processed in (near) simulated-time order. *)
    Sim_threads.yield ();
    while t.holder >= 0 do
      (* Busy in simulated time: catch up to the holder and let it run. *)
      wait_until t (Sim_threads.clock_of t.holder + 1);
      Sim_threads.yield ()
    done
  end;
  (* Held by a thread that cannot run before us: a deadlock. *)
  if t.holder <> free then
    misuse "%s locks lock %d held by %s" (who me) t.id (who t.holder);
  acquire t me

let try_lock t =
  (* Same rescheduling rule as [lock], so tries are processed in (near)
     simulated-time order before the holder check. *)
  if not t.contention_free then Sim_threads.yield ();
  if t.holder = free then begin
    acquire t (self ());
    true
  end
  else begin
    Clock.advance t.acquire_ns;
    false
  end

let unlock t =
  let me = self () in
  if t.holder = free then misuse "double unlock of lock %d by %s" t.id (who me);
  if t.holder <> me then
    misuse "%s unlocking lock %d held by %s" (who me) t.id (who t.holder);
  Trace.emit_sync (Trace.Release { lock = t.id });
  t.hold_ns <- t.hold_ns + max 0 (Clock.now () - t.acquired_at);
  if not t.contention_free then t.released_at <- Clock.now ();
  t.holder <- free

let with_lock t f =
  lock t;
  match f () with
  | v ->
      unlock t;
      v
  | exception e ->
      unlock t;
      raise e
