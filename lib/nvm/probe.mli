(** Lightweight span/phase profiler for the simulated-NVM stack.

    A probe accumulates named phases.  Each {!span} charges its body's
    simulated duration ({!Clock} delta) and NVM operation counters
    ({!Stats} delta) to one phase, so a recovery pass or a checkpoint can
    report exactly where its time and line writes went — attribution a
    raw {!Stats.t} cannot give, because the arena's counters are
    cumulative across the whole run (and across crashes).

    Phases are keyed by name and keep first-entry order.  Re-entering a
    phase accumulates. *)

type phase = {
  name : string;
  mutable count : int;  (** spans charged to this phase *)
  mutable sim_ns : int;  (** accumulated simulated duration *)
  stats : Stats.t;  (** accumulated NVM counter deltas *)
}

type t

val create : unit -> t

val span : t -> Stats.t -> string -> (unit -> 'a) -> 'a
(** [span p stats name f] runs [f], charging its simulated-clock and
    [stats] counter deltas to phase [name].  Exceptions propagate after
    the charge.  Spans of different names may nest; the inner span's
    costs are then counted in both phases (the outer one reports
    inclusive totals). *)

val charge : t -> string -> sim_ns:int -> stats:Stats.t -> unit
(** Charge an already-measured interval to a phase (for callers that
    cannot wrap the work in a closure). *)

val phases : t -> phase list
(** Phases in first-entry order. *)

val find : t -> string -> phase option
val total_sim_ns : t -> int

val pp : t Fmt.t
(** One line per phase: name, count, simulated time, line
    writes/flushes/fences. *)
