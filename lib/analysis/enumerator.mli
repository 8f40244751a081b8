(** Crash-state enumerator: at every fence of a bounded workload,
    exhaustively materialize each of the [2^n] durable states a crash
    could leave (every dirty, unpinned cacheline independently written
    back or lost; pinned lines always lost), run recovery against each,
    and check the result is a legal serialization.

    Deterministic complement to the randomized fault campaign: where
    {!Crash_harness.every_event} walks one linear order of persistence
    events and the
    fault model samples random eviction masks, the enumerator proves
    *every* fence-boundary subset recovers correctly. *)

type stats = {
  capture_points : int;  (** fences snapshotted, plus the final state *)
  crash_states : int;  (** crash states materialized and recovered *)
  max_open_lines : int;  (** largest dirty-line set at a capture point *)
}

val pp_stats : stats Fmt.t

exception
  Illegal of {
    capture_point : int;
    survivors : int list;
    detail : string;
  }
(** Raised when some crash state recovers to an illegal result; the
    capture point and surviving-line subset replay it deterministically. *)

val run :
  ?max_lines:int ->
  ?at_every_event:bool ->
  Rewind_nvm.Arena.t ->
  workload:(unit -> unit) ->
  recover:(Rewind_nvm.Arena.t -> 'a) ->
  check:('a -> string option) ->
  stats
(** [run arena ~workload ~recover ~check] traces [workload] on [arena],
    snapshotting at every fence (plus once at the end); for each snapshot
    enumerates all crash states, builds a fresh crashed arena for each,
    applies [recover], and requires [check] to return [None] (legal).
    [Some detail] raises {!Illegal}.  A capture point with more than
    [max_lines] (default 14) dirty lines raises [Invalid_argument] rather
    than silently truncating the claim of exhaustiveness.

    [at_every_event] (default false) additionally captures at every
    store (cached or durable) and every dirty write-back.  The WAL
    configurations fence at every ordering-significant moment, so fence
    captures suffice for them; the epoch protocol (InCLL) is nearly
    fence-free between epoch advances, and a dirty line's potential
    crash image changes with each cached store — the finer grid is what
    lets the sweep reach the first-store-of-epoch torn-line states and
    every point inside an epoch advance. *)
