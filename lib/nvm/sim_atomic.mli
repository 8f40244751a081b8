(** Instrumented atomics.

    A wrapper over [Stdlib.Atomic] giving each atomic a process-unique
    identity and reporting every operation to {!Trace.emit_sync} as an
    {!Trace.Atomic_rmw} (acquire+release on the identity), so the race
    detector sees the synchronisation edges of fetch-and-add / CAS
    chains.  Everything outside [lib/nvm] must use this instead of raw
    [Stdlib.Atomic] (enforced by the lint pass). *)

type 'a t

val make : 'a -> 'a t
val id : _ t -> int
(** Identity as it appears in {!Trace.Atomic_rmw} events. *)

val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
val fetch_and_add : int t -> int -> int
val incr : int t -> unit

(** {1 Atomic arena words}

    NVM-resident atomics for lock-free durable structures: the word's
    identity is derived from its byte address (negated, so it never
    collides with [make]'s ids), and every access is bracketed by two
    {!Trace.Atomic_rmw} events on it — the leading edge orders the
    access after every earlier completed access to the word, the
    trailing edge publishes it to the next one.  The load/store between
    the brackets goes through {!Arena}, so the sanitizer and enumerator
    see the memory traffic as usual. *)

val read_word : Arena.t -> int -> int64
(** Acquire-read of an arena word (bracketed, see above). *)

val write_word : Arena.t -> int -> int64 -> unit
(** Atomic cached store to an arena word (bracketed). *)

val compare_and_set_word :
  ?persist:bool -> Arena.t -> int -> expected:int64 -> desired:int64 -> bool
(** [compare_and_set_word arena addr ~expected ~desired] atomically
    replaces the word's value if it equals [expected]; returns whether it
    did.  With [~persist:true] (link-and-persist) a successful CAS also
    flushes the word's cacheline {e inside} the bracket, so the
    write-back is ordered with the CAS chain itself and a concurrent
    CAS/flush on the same word can never make the durable prefix
    schedule-dependent. *)
