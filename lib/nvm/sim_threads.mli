(** Simulated multithreading: conservative discrete-event execution of
    logical threads as cooperative fibers (OCaml effects) on one domain.

    The scheduler always resumes the fiber with the smallest simulated
    clock; fibers yield between operations and inside {!Sim_mutex.lock},
    so lock contention is resolved at lock-section granularity in
    simulated time.  Deterministic. *)

val run : threads:int -> ops_per_thread:int -> (int -> int -> unit) -> int
(** [run ~threads ~ops_per_thread f] executes [f thread op_index] for
    every operation of every fiber; an operation's cost is whatever it
    advances the clock by.  Returns the slowest fiber's finish time
    relative to the common start.  The clock is never moved backwards —
    lock release times stamped during setup stay on the same timeline.

    Runs nest: inside a running scheduler's fiber, the inner run's fibers
    are spawned by (and joined into) that fiber, and the scheduler state
    — including {!current} — is restored on exit, normal or exceptional.
    The inner fibers reuse the outer run's fiber ids in trace events. *)

val fork_join : int -> (int -> 'a) -> 'a array
(** [fork_join n f] runs [f i] for every [i < n] on its own fiber, all
    starting at the caller's current simulated instant, and returns the
    results in index order.  The caller's clock is left at the join:
    start + the slowest task's duration.  A single task ([n = 1]) runs
    inline, with no scheduler.  An exception raised by a task (an
    {!Arena.Crash}, say) propagates once the scheduler state is
    restored; the remaining tasks do not run to completion. *)

(** {1 Scheduler state} (used by {!Sim_mutex}) *)

val active : unit -> bool
(** Whether a fiber scheduler is currently running. *)

val current : unit -> int
(** The running fiber's id. *)

val clock_of : int -> int
(** A fiber's current simulated clock. *)

val yield : unit -> unit
(** Reschedule (no-op outside a scheduler). *)
