(** The crash harness: one way to crash a persistent world and check
    what recovery makes of it.

    A {!scenario} states a crash-consistency claim once — how to build
    the world, which operations a crash may interrupt, how to reattach,
    and the protocol's allowed-set predicate — and the drivers below
    enumerate the crashes.  Every driver enforces the two rules that
    hand-written sweeps kept getting wrong:

    - an armed trial must crash: arming past the end of the window is a
      test bug, not a pass, and raises {!Failed};
    - every recovery the harness runs is watched by a
      {!Sanitizer} (collect mode) on each of the world's arenas, and a
      violation fails the trial.  A scenario that already traces an
      arena (its own sanitizer or race detector) keeps that tracer. *)

type ('w, 'r) scenario = {
  setup : unit -> 'w;
      (** A fresh world, run up to the start of the crash window.  Must
          be deterministic: a dry run's event counts name the crash
          points of every later trial. *)
  arenas : 'w -> Rewind_nvm.Arena.t array;
      (** The world's arenas: one, or a 2PC cluster's.  The first is the
          one {!recover} is handed. *)
  window : 'w -> unit;
      (** The operations a crash may interrupt.  A crash escaping as
          {!Rewind_nvm.Arena.Crash} ends the window; a multi-component
          world may also absorb it (a dead node stops answering). *)
  recover : 'w -> Rewind_nvm.Arena.t -> 'r;
      (** Reattach after the crash.  The arena is the world's first
          arena, or under {!every_fence_subset} a materialized crash
          state of it; a single-arena scenario must recover from the
          arena it is handed. *)
  check : 'w -> 'r -> string option;
      (** The protocol's allowed-set predicate over the recovered
          state: [None] if legal, [Some detail] otherwise. *)
}

exception Failed of { arena : int; event : int; detail : string }
(** A trial broke the claim.  [arena] indexes {!scenario.arenas} ([-1]:
    no arena was armed); [event] is the 1-based window persistence event
    the crash was armed at, [0] for a power failure after the window.
    A printer is registered, so test frameworks show all three. *)

type sweep = {
  arenas_swept : int;  (** arenas with at least one crash point *)
  crash_points : int;  (** window crash states recovered and checked *)
  recovery_crash_points : int;  (** armed crashes inside recovery *)
}

(** {1 Drivers} *)

val every_event :
  ?stride:(int -> int) ->
  ('w, 'r) scenario ->
  sweep
(** A dry run counts each arena's persistence events in the window, N.
    Trial k (k = 1, 1 + s, 1 + 2s, … ≤ N, where s = [stride N], by
    default 1) arms that arena at k − 1, runs the window, fails unless the arena
    crashed, then recovers and checks.  A single-arena sweep is the
    one-element case of the multi-node (2PC) one. *)

val every_fence_subset :
  ?at_every_event:bool -> ('w, 'r) scenario -> Enumerator.stats
(** {!Enumerator.run} over the scenario's first arena: every subset of
    the dirty lines at every capture point is materialized, recovered
    and checked.  Raises {!Enumerator.Illegal} on an illegal state. *)

type origin =
  [ `Window_end  (** a power failure after the window completes *)
  | `Every_event  (** each of the window's persistence events *) ]

val during_recovery :
  ?from:origin ->
  ('w, 'r) scenario ->
  observe:('w -> 'r -> string) ->
  sweep
(** For each window crash state ([from] defaults to [`Window_end]): an
    uninterrupted recovery is the reference; then recovery is crashed at
    each of its own persistence events, and a second recovery must be
    legal and [observe] to the same string as the reference. *)

val recovery_chain : ?from:origin -> ('w, 'r) scenario -> sweep
(** For each window crash state ([from] defaults to [`Window_end]):
    recover with a crash armed at depth 0, then 1, 2, … on the same
    arena, until a recovery completes; that recovery must be legal.
    There is no depth bound: a recovery that never completes is a
    liveness bug the test should hang on. *)

val crash_once : ('w, 'r) scenario -> after:int -> 'r
(** One crash for the randomized tests: a dry run counts the first
    arena's window events N, the trial crashes at event
    [after mod N + 1], and the recovered state is checked and returned.
    Fails if the window has no events or the armed run did not crash. *)

val recover_checked : ('w, 'r) scenario -> 'w -> 'r
(** Recover and check a world the caller crashed by other means (a
    chaos hook inside the window), under the same sanitizer rule.
    Failures report arena [-1], event [0]. *)
