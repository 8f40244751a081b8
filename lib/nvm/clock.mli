(** The simulated nanosecond clock.  The simulator runs on one domain;
    {!Sim_threads} gives each fiber its own time by swapping it in and
    out with {!set}.  All cost charging in the substrate goes through
    {!advance}; benchmarks measure with {!start}/{!elapsed} spans.

    Never move a clock backwards mid-workload: {!Sim_mutex} release times
    live on the same timeline. *)

val advance : int -> unit
(** Add simulated nanoseconds to the clock. *)

val advance_to : int -> unit
(** Raise the clock to at least the given instant (lock-wait modelling). *)

val now : unit -> int
val set : int -> unit
val reset : unit -> unit

type span

val start : unit -> span
val elapsed : span -> int

val pp_ns : int Fmt.t
(** Human-readable duration (ns/µs/ms/s). *)
