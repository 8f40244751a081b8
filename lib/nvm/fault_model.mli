(** Seeded adversarial fault model for the simulated NVM.

    Attached to an {!Arena} (see {!Arena.set_fault_model}) it replaces the
    kind crash semantics — "all dirty lines are lost" — with the arbitrary
    eviction adversary of real hardware: at crash time each dirty line
    survives independently with probability [crash_survival_ppm] / 1e6;
    during normal operation every cached store may spontaneously write
    back a recently-dirtied line with probability [eviction_ppm] / 1e6;
    and designated media-faulty lines return corrupted data on cached
    reads.

    All randomness comes from one PRNG seeded at creation: a given
    (seed, workload) pair replays the identical fault schedule. *)

type t

val create :
  ?eviction_ppm:int -> ?crash_survival_ppm:int -> seed:int -> unit -> t
(** Defaults: no spontaneous evictions, 50% per-line crash survival.
    Probabilities are in parts per million, from 0 to {!ppm_max}. *)

val ppm_max : int

val seed : t -> int
val eviction_ppm : t -> int
val crash_survival_ppm : t -> int

val roll_eviction : t -> bool
(** Roll the spontaneous-eviction die (one roll per cached store). *)

val survives_crash : t -> bool
(** Roll the crash-survival die (one roll per dirty line, ascending line
    order, making the eviction mask a pure function of the seed and the
    crash-time dirty set). *)

val choose : t -> int -> int
(** [choose t n] draws uniformly from [0, n); 0 when [n <= 0]. *)

(** {1 Media faults} *)

val set_media_fault : t -> line:int -> unit
val clear_media_fault : t -> line:int -> unit
val media_faulty : t -> line:int -> bool
val media_fault_count : t -> int

val pp : t Fmt.t
