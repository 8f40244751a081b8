(** Happens-before race detection over the trace stream.

    A FastTrack-style vector-clock detector for the simulated multicore.
    Attach one to an arena and it consumes the arena's memory events
    (with load tracing switched on) together with the synchronization
    events {!Rewind_nvm.Sim_mutex}, {!Rewind_nvm.Sim_atomic} and
    {!Rewind_nvm.Sim_threads} emit through {!Rewind_nvm.Trace.emit_sync}:

    - {b data races}: an access pair to the same 8-byte word from two
      fibers, at least one a write, with no happens-before edge between
      them;
    - {b persist races}: a flush/eviction of a cacheline concurrent with
      another fiber's store to it, which makes the durable prefix
      scheduler-dependent.  Two exemptions: stores covered by a live
      undo record (WAL makes their early write-back recoverable, and the
      persistency sanitizer checks that ordering separately), and stores
      to memory the storing fiber allocated and no other fiber has yet
      accessed (an undo record under construction is unreachable until
      its append publishes it).

    Races are reported once per (kind, site), as a pair of accesses with
    fiber ids, event indices and held-lock sets. *)

type access = {
  fiber : int;  (** -1 = the spawning (main) thread *)
  clock : int;  (** the fiber's scalar clock at the access *)
  event_no : int;  (** index into the combined event stream *)
  locks : int list;  (** ids of locks held at the access, sorted *)
}

type kind =
  | Write_write  (** two concurrent writes to one word *)
  | Write_read  (** earlier write, concurrent later read *)
  | Read_write  (** earlier read, concurrent later write *)
  | Persist_order
      (** line write-back concurrent with another fiber's store to it *)

type race = { kind : kind; addr : int; len : int; prev : access; cur : access }

exception Race of race

type mode =
  | Raise  (** raise {!Race} at the first report *)
  | Collect  (** record reports; retrieve with {!races} *)

type t

val attach : ?mode:mode -> Rewind_nvm.Arena.t -> t
(** Install the detector: it becomes the arena's tracer (saving any
    previous one), switches load tracing on, and registers itself as the
    global sync tracer.  [mode] defaults to [Raise]. *)

val detach : t -> unit
(** Restore the arena's previous tracer, switch load tracing off, and
    unregister the sync tracer. *)

val with_racecheck : ?mode:mode -> Rewind_nvm.Arena.t -> (t -> 'a) -> 'a

val races : t -> race list
(** Reported races, oldest first. *)

val events_seen : t -> int

val pp_kind : kind Fmt.t
val pp_race : race Fmt.t

type report = { events : int; data_races : int; persist_races : int }

val report : t -> report
val pp_report : report Fmt.t
