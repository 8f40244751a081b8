(** A mutex that models contention in simulated time.

    Under the {!Sim_threads} fiber scheduler, exclusion is cooperative: a
    fiber reaching a busy lock advances past the holder's progress and
    yields; acquiring pulls the fiber's clock to the last release time.
    Under real domains, a real [Mutex] provides exclusion and the
    release-time rule models the waiting.

    Each lock has a process-unique {!id} and reports acquires and
    releases through {!Trace.emit_sync}, so an attached race detector
    sees every synchronisation edge.

    Each lock accumulates its wait and hold time in simulated ns
    ({!wait_ns}, {!hold_ns}) without moving any clock. *)

type t

exception Misuse of string
(** Raised in fiber mode on double-unlock or unlock-by-non-holder. *)

val create : ?acquire_ns:int -> ?contention_free:bool -> unit -> t
(** [acquire_ns] is the fixed simulated cost of the lock operation itself
    (default 20 ns).  [contention_free] makes the lock free in simulated
    time: the acquirer pays only [acquire_ns] and never waits, while real
    mutual exclusion is still provided.  Its one user is {!Alloc}'s
    metadata lock, which is modelled as costing nothing on purpose. *)

val id : t -> int
(** Process-unique identity, as it appears in {!Trace.Acquire} events. *)

val lock : t -> unit

val try_lock : t -> bool
(** Non-blocking acquire: [true] and the lock is held, or [false]
    immediately if another thread holds it.  Either way the fixed
    [acquire_ns] cost is charged — a failed try is a real CAS. *)

val unlock : t -> unit
(** In fiber mode, raises {!Misuse} if the lock is not held (double
    unlock) or is held by a different fiber. *)

val holding : t -> bool
(** [holding t] is true iff the current fiber holds [t].  Only
    meaningful under the fiber scheduler; false otherwise. *)

val with_lock : t -> (unit -> 'a) -> 'a

val wait_ns : t -> int
(** Total simulated ns acquirers of this lock spent waiting for it: the
    clock span an acquire skips to reach the holder's progress or the
    last release.  The fixed [acquire_ns] is not waiting. *)

val hold_ns : t -> int
(** Total simulated ns this lock was held: from the end of each acquire,
    its fixed cost paid, to the matching release. *)
