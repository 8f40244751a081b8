(** Simulated lossy message fabric for the distributed commit protocol.

    Deterministic: loss is sampled from a private LCG seeded at
    {!create}, so a run is a pure function of the seed — the
    crash-everywhere sweep replays the identical message schedule while
    it moves the crash point. *)

type t

val create : ?latency_ns:int -> ?drop_1_in:int -> ?seed:int -> unit -> t
(** [drop_1_in = 0] (default) is a lossless fabric; [n > 0] drops roughly
    one message in [n].  [latency_ns] (default 1500) is charged to the
    caller's simulated clock per message hop. *)

val deliver : t -> bool
(** One message hop: charges latency and returns whether it arrived. *)

val sent : t -> int
val dropped : t -> int
